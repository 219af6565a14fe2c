//! Offline shim for `serde_derive`: generates impls of the workspace
//! `serde` shim's [`Serialize`]/[`Deserialize`] value-tree traits.
//!
//! Written against raw [`proc_macro`] token streams (no `syn`/`quote`
//! available offline), so it supports exactly the shapes this repo
//! derives on, each encoded the way upstream serde encodes it by default:
//!
//! * named-field structs → `{"field": …}`, with per-field
//!   `#[serde(default)]` and `#[serde(skip_serializing_if = "path")]`;
//! * tuple structs → an array, or the inner value for a single-field
//!   newtype with `#[serde(transparent)]`;
//! * enums, externally tagged: a unit variant → `"tag"`, a newtype
//!   variant → `{"tag": inner}`, a struct variant → `{"tag": {fields}}`,
//!   with the container attribute `#[serde(rename_all = "snake_case")]`
//!   renaming the tags.
//!
//! Generics, tuple variants of more than one field and every other serde
//! attribute are rejected with a compile error naming this crate, so
//! accidental reliance fails loudly rather than silently mis-serializing.

use proc_macro::{token_stream, Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

type Tokens = Peekable<token_stream::IntoIter>;

/// Field description gathered from a struct or struct-variant body.
struct Field {
    name: String,
    default: bool,
    skip_serializing_if: Option<String>,
}

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    tag: String,
    shape: Shape,
}

enum Body {
    Struct(Shape),
    Enum(Vec<Variant>),
}

/// What we parsed out of the derive input.
struct Input {
    name: String,
    transparent: bool,
    body: Body,
}

/// Derive the workspace `serde::Serialize` shim trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input {
        name,
        transparent,
        body,
    } = parse_input(input);
    let body = match body {
        Body::Struct(Shape::Named(fields)) => ser_fields(&fields, |n| format!("&self.{n}")),
        Body::Struct(Shape::Tuple(1)) if transparent => {
            "::serde::Serialize::to_value(&self.0)".to_string()
        }
        Body::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::value::Value::Array(vec![{}])", items.join(", "))
        }
        Body::Struct(Shape::Unit) => unreachable!("unit structs are refused while parsing"),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for Variant {
                name: v,
                tag,
                shape,
            } in &variants
            {
                let tagged = |inner: String| {
                    format!("::serde::value::Value::Object(vec![({tag:?}.to_string(), {inner})])")
                };
                arms.push_str(&match shape {
                    Shape::Unit => {
                        format!("{name}::{v} => ::serde::value::Value::Str({tag:?}.to_string()),\n")
                    }
                    Shape::Tuple(_) => format!(
                        "{name}::{v}(__inner) => {},\n",
                        tagged("::serde::Serialize::to_value(__inner)".to_string())
                    ),
                    Shape::Named(fields) => format!(
                        "{name}::{v} {{ {} }} => {},\n",
                        fields
                            .iter()
                            .map(|f| f.name.as_str())
                            .collect::<Vec<_>>()
                            .join(", "),
                        tagged(ser_fields(fields, str::to_string))
                    ),
                });
            }
            format!("match self {{\n{arms}}}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::value::Value {{\n{body}\n}}\n\
         }}"
    )
    .parse()
    .expect("serde_derive shim generated invalid Serialize impl")
}

/// An object expression of `fields`, each read through `access(name)`
/// (a reference).
fn ser_fields(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut pushes = String::new();
    for f in fields {
        let val = access(&f.name);
        let push = format!(
            "__entries.push(({:?}.to_string(), ::serde::Serialize::to_value({val})));",
            f.name
        );
        match &f.skip_serializing_if {
            Some(pred) => pushes.push_str(&format!("if !{pred}({val}) {{ {push} }}\n")),
            None => pushes.push_str(&format!("{push}\n")),
        }
    }
    format!(
        "{{ let mut __entries: Vec<(String, ::serde::value::Value)> = Vec::new();\n\
         {pushes}::serde::value::Value::Object(__entries) }}"
    )
}

/// Derive the workspace `serde::Deserialize` shim trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input {
        name,
        transparent,
        body,
    } = parse_input(input);
    let body = match body {
        Body::Struct(Shape::Named(fields)) => de_fields(&name, &fields),
        Body::Struct(Shape::Tuple(1)) if transparent => {
            format!("Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Body::Struct(Shape::Tuple(n)) => {
            let items: Vec<String> = (0..n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?"))
                .collect();
            format!(
                "let items = v.as_array().ok_or_else(|| ::serde::DeError::new(\
                     concat!(\"expected array for \", {name:?})))?;\n\
                 if items.len() != {n} {{\n\
                     return Err(::serde::DeError::new(concat!(\"wrong arity for \", {name:?})));\n\
                 }}\n\
                 Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Body::Struct(Shape::Unit) => unreachable!("unit structs are refused while parsing"),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for Variant {
                name: v,
                tag,
                shape,
            } in &variants
            {
                arms.push_str(&match shape {
                    Shape::Unit => format!("({tag:?}, None) => Ok({name}::{v}),\n"),
                    Shape::Tuple(_) => format!(
                        "({tag:?}, Some(v)) => Ok({name}::{v}(::serde::Deserialize::from_value(v)?)),\n"
                    ),
                    Shape::Named(fields) => format!(
                        "({tag:?}, Some(v)) => {},\n",
                        de_fields(&format!("{name}::{v}"), fields)
                    ),
                });
            }
            let tags: Vec<String> = variants.iter().map(|v| format!("{:?}", v.tag)).collect();
            format!(
                "match ::serde::__private::variant(v, {name:?})? {{\n{arms}\
                     (tag, _) => Err(::serde::__private::bad_variant({name:?}, tag, &[{}])),\n\
                 }}",
                tags.join(", ")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::value::Value) -> Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive shim generated invalid Deserialize impl")
}

/// A block building `path { fields }` from the object `v`.
fn de_fields(path: &str, fields: &[Field]) -> String {
    let mut inits = String::new();
    for f in fields {
        let missing = if f.default || f.skip_serializing_if.is_some() {
            "Default::default()".to_string()
        } else {
            format!(
                "return Err(::serde::DeError::new(\"missing field `{}` in {path}\"))",
                f.name
            )
        };
        inits.push_str(&format!(
            "{n}: match ::serde::value::get(__entries, {n:?}) {{\n\
                 Some(v) => ::serde::Deserialize::from_value(v)?,\n\
                 None => {missing},\n\
             }},\n",
            n = f.name
        ));
    }
    format!(
        "{{ let __entries = v.as_object().ok_or_else(|| ::serde::DeError::new(\
             \"expected object for {path}\"))?;\n\
         Ok({path} {{\n{inits}}}) }}"
    )
}

/// Parse `[attrs] [vis] (struct|enum) Name body` from the derive input.
fn parse_input(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    let mut transparent = false;
    let mut snake_case = false;
    for (key, val) in take_attrs_and_vis(&mut iter) {
        match (key.as_str(), val.as_deref()) {
            ("transparent", None) => transparent = true,
            ("rename_all", Some("snake_case")) => snake_case = true,
            (other, _) => panic!("unsupported #[serde({other})] on a container in the serde shim"),
        }
    }
    let keyword = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected `struct` or `enum`, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected a type name, got {other:?}"),
    };
    let body = match (keyword.as_str(), iter.next()) {
        (_, Some(TokenTree::Punct(p))) if p.as_char() == '<' => {
            panic!("serde shim derive does not support generics ({keyword} {name})")
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(Shape::Named(parse_named_fields(g.stream())))
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(Shape::Tuple(count_tuple_fields(g.stream())))
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Enum(parse_variants(g.stream(), snake_case))
        }
        (_, other) => panic!(
            "serde shim derive supports named/tuple structs and enums \
             (crates/compat/serde_derive), got {keyword} {name} {other:?}"
        ),
    };
    Input {
        name,
        transparent,
        body,
    }
}

/// Consume leading `#[…]` attributes and an optional visibility,
/// returning the `#[serde(...)]` flags among them.
fn take_attrs_and_vis(iter: &mut Tokens) -> Vec<(String, Option<String>)> {
    let mut flags = Vec::new();
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                if let Some(TokenTree::Group(g)) = iter.next() {
                    flags.extend(serde_attr_flags(&g.stream()));
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                // Optional (crate)/(super) restriction.
                if matches!(iter.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    iter.next();
                }
            }
            _ => return flags,
        }
    }
}

/// Consume up to and including the next top-level `,` (a field type or
/// a variant discriminant). `<…>` are not token groups, so generic
/// arguments' commas are skipped by tracking their depth.
fn skip_past_comma(iter: &mut Tokens) {
    let mut angle_depth = 0i32;
    for t in iter.by_ref() {
        match t {
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => return,
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            _ => {}
        }
    }
}

/// Parse a brace body: `[attrs] [vis] name : type ,` repeated.
fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        let flags = take_attrs_and_vis(&mut iter);
        let Some(TokenTree::Ident(name)) = iter.next() else {
            return fields;
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected ':' after field {name}, got {other:?}"),
        }
        skip_past_comma(&mut iter);
        let mut field = Field {
            name: name.to_string(),
            default: false,
            skip_serializing_if: None,
        };
        for (key, val) in flags {
            match key.as_str() {
                "default" => field.default = true,
                "skip_serializing_if" => field.skip_serializing_if = val,
                other => panic!("unsupported #[serde({other})] on a field in the serde shim"),
            }
        }
        fields.push(field);
    }
}

/// Parse an enum body: `[attrs] Name [{ fields } | (type)] [= expr] ,`
/// repeated.
fn parse_variants(body: TokenStream, snake_case: bool) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut iter = body.into_iter().peekable();
    loop {
        if let Some((key, _)) = take_attrs_and_vis(&mut iter).first() {
            panic!("unsupported #[serde({key})] on a variant in the serde shim");
        }
        let Some(TokenTree::Ident(name)) = iter.next() else {
            return variants;
        };
        let name = name.to_string();
        let shape = match iter.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                match count_tuple_fields(g.stream()) {
                    1 => Shape::Tuple(1),
                    n => panic!("serde shim derive: tuple variant {name} has {n} fields, max 1"),
                }
            }
            _ => Shape::Unit,
        };
        if !matches!(shape, Shape::Unit) {
            iter.next();
        }
        skip_past_comma(&mut iter);
        let tag = if snake_case {
            to_snake_case(&name)
        } else {
            name.clone()
        };
        variants.push(Variant { name, tag, shape });
    }
}

/// Upstream serde's `snake_case` rule: `LocalSearch` → `local_search`.
fn to_snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.char_indices() {
        if i > 0 && c.is_uppercase() {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

/// Count tuple fields: top-level commas + 1 (0 fields unsupported).
fn count_tuple_fields(body: TokenStream) -> usize {
    let mut iter = body.into_iter().peekable();
    assert!(
        iter.peek().is_some(),
        "serde shim derive: empty tuple structs and variants unsupported"
    );
    let mut count = 0;
    while iter.peek().is_some() {
        skip_past_comma(&mut iter);
        count += 1;
    }
    count
}

/// From one attribute's bracket-group stream, extract serde flags as
/// `(key, optional string value)` pairs. Non-serde attributes yield none.
fn serde_attr_flags(stream: &TokenStream) -> Vec<(String, Option<String>)> {
    let mut iter = stream.clone().into_iter();
    match iter.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return Vec::new(),
    }
    let Some(TokenTree::Group(args)) = iter.next() else {
        return Vec::new();
    };
    let mut flags = Vec::new();
    let mut args = args.stream().into_iter().peekable();
    while let Some(t) = args.next() {
        let TokenTree::Ident(key) = t else { continue };
        let mut val = None;
        if matches!(args.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            args.next();
            if let Some(TokenTree::Literal(lit)) = args.next() {
                let s = lit.to_string();
                val = Some(s.trim_matches('"').to_string());
            }
        }
        flags.push((key.to_string(), val));
    }
    flags
}
