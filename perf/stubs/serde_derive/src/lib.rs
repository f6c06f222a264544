//! Std-only stand-in for `serde_derive`.
//!
//! Parses the item with `proc_macro` alone and emits the same
//! `Serializer`/`Visitor` calls the published derive does, so the bytes a
//! positional format writes are unchanged. Supported: non-generic structs
//! (named, tuple, newtype, unit) and enums (unit, newtype, tuple, struct
//! variants), and `#[serde(default)]` on named fields. Deserialization is
//! positional (`visit_seq`), which is all a non-self-describing format
//! calls. Anything else is a compile error naming what is missing.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    default: bool,
}

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    body: Body,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, serialize_impl)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, deserialize_impl)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive stand-in generated invalid Rust")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

fn ident_of(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

/// Splits a token list at commas outside `<...>`; groups are single
/// tokens, so only angle brackets need tracking.
fn split_commas(tokens: Vec<TokenTree>) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 0i32;
    let mut prev_dash = false;
    for t in tokens {
        if is_punct(&t, '<') {
            depth += 1;
        } else if is_punct(&t, '>') && !prev_dash {
            depth -= 1;
        }
        prev_dash = is_punct(&t, '-');
        if depth == 0 && is_punct(&t, ',') {
            out.push(std::mem::take(&mut cur));
        } else {
            cur.push(t);
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Strips leading attributes and visibility from one field or variant;
/// reports whether `#[serde(default)]` was among the attributes.
fn strip_attrs_and_vis(tokens: &[TokenTree]) -> Result<(&[TokenTree], bool), String> {
    let mut i = 0;
    let mut default = false;
    while i + 1 < tokens.len() && is_punct(&tokens[i], '#') {
        if let TokenTree::Group(g) = &tokens[i + 1] {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if inner.first().and_then(ident_of).as_deref() == Some("serde") {
                let args = match inner.get(1) {
                    Some(TokenTree::Group(a)) => a.stream().to_string(),
                    _ => String::new(),
                };
                if args.trim() == "default" {
                    default = true;
                } else {
                    return Err(format!(
                        "serde_derive stand-in: unsupported attribute #[serde({args})]"
                    ));
                }
            }
        }
        i += 2;
    }
    if tokens.get(i).and_then(ident_of).as_deref() == Some("pub") {
        i += 1;
        if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    Ok((&tokens[i..], default))
}

fn parse_named(stream: TokenStream) -> Result<Fields, String> {
    let mut fields = Vec::new();
    for seg in split_commas(stream.into_iter().collect()) {
        let (rest, default) = strip_attrs_and_vis(&seg)?;
        let name = rest
            .first()
            .and_then(ident_of)
            .ok_or_else(|| "serde_derive stand-in: expected a field name".to_string())?;
        fields.push(Field { name, default });
    }
    Ok(Fields::Named(fields))
}

fn parse_tuple(stream: TokenStream) -> Fields {
    Fields::Tuple(split_commas(stream.into_iter().collect()).len())
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for seg in split_commas(stream.into_iter().collect()) {
        let (rest, _) = strip_attrs_and_vis(&seg)?;
        let name = rest
            .first()
            .and_then(ident_of)
            .ok_or_else(|| "serde_derive stand-in: expected a variant name".to_string())?;
        let fields = match rest.get(1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                parse_tuple(g.stream())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                parse_named(g.stream())?
            }
            _ => Fields::Unit,
        };
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (rest, _) = strip_attrs_and_vis(&tokens)?;
    let kind = rest.first().and_then(ident_of).unwrap_or_default();
    let name = rest
        .get(1)
        .and_then(ident_of)
        .ok_or_else(|| "serde_derive stand-in: expected a type name".to_string())?;
    if rest.get(2).is_some_and(|t| is_punct(t, '<')) {
        return Err(format!(
            "serde_derive stand-in: generic type `{name}` is not supported"
        ));
    }
    let body = match (kind.as_str(), rest.get(2)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(parse_named(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Struct(parse_tuple(g.stream()))
        }
        ("struct", _) => Body::Struct(Fields::Unit),
        ("enum", Some(TokenTree::Group(g))) => Body::Enum(parse_variants(g.stream())?),
        _ => {
            return Err(format!(
                "serde_derive stand-in: cannot derive for `{kind} {name}`"
            ))
        }
    };
    Ok(Item { name, body })
}

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

fn serialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Fields::Unit) => format!("__s.serialize_unit_struct({name:?})"),
        Body::Struct(Fields::Tuple(1)) => {
            format!("__s.serialize_newtype_struct({name:?}, &self.0)")
        }
        Body::Struct(Fields::Tuple(n)) => {
            let fields: String = (0..*n)
                .map(|i| {
                    format!("::serde::ser::SerializeTupleStruct::serialize_field(&mut __st, &self.{i})?;")
                })
                .collect();
            format!(
                "let mut __st = __s.serialize_tuple_struct({name:?}, {n})?; {fields} \
                 ::serde::ser::SerializeTupleStruct::end(__st)"
            )
        }
        Body::Struct(Fields::Named(fields)) => {
            let n = fields.len();
            let body: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "::serde::ser::SerializeStruct::serialize_field(&mut __st, {:?}, &self.{})?;",
                        f.name, f.name
                    )
                })
                .collect();
            format!(
                "let mut __st = __s.serialize_struct({name:?}, {n})?; {body} \
                 ::serde::ser::SerializeStruct::end(__st)"
            )
        }
        Body::Enum(variants) => {
            let arms: String = variants
                .iter()
                .enumerate()
                .map(|(idx, v)| serialize_variant_arm(name, idx, v))
                .collect();
            format!("match *self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]
        impl ::serde::Serialize for {name} {{
            fn serialize<__S: ::serde::Serializer>(&self, __s: __S)
                -> ::core::result::Result<__S::Ok, __S::Error>
            {{
                {body}
            }}
        }}"
    )
}

fn serialize_variant_arm(name: &str, idx: usize, v: &Variant) -> String {
    let vname = &v.name;
    match &v.fields {
        Fields::Unit => {
            format!("{name}::{vname} => __s.serialize_unit_variant({name:?}, {idx}u32, {vname:?}),")
        }
        Fields::Tuple(1) => format!(
            "{name}::{vname}(ref __f0) => \
             __s.serialize_newtype_variant({name:?}, {idx}u32, {vname:?}, __f0),"
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("ref __f{i}")).collect();
            let fields: String = (0..*n)
                .map(|i| {
                    format!(
                        "::serde::ser::SerializeTupleVariant::serialize_field(&mut __st, __f{i})?;"
                    )
                })
                .collect();
            format!(
                "{name}::{vname}({}) => {{ \
                 let mut __st = __s.serialize_tuple_variant({name:?}, {idx}u32, {vname:?}, {n})?; \
                 {fields} ::serde::ser::SerializeTupleVariant::end(__st) }}",
                binds.join(", ")
            )
        }
        Fields::Named(fields) => {
            let n = fields.len();
            let binds: Vec<String> = fields.iter().map(|f| format!("ref {}", f.name)).collect();
            let body: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "::serde::ser::SerializeStructVariant::serialize_field(&mut __st, {:?}, {})?;",
                        f.name, f.name
                    )
                })
                .collect();
            format!(
                "{name}::{vname} {{ {} }} => {{ \
                 let mut __st = __s.serialize_struct_variant({name:?}, {idx}u32, {vname:?}, {n})?; \
                 {body} ::serde::ser::SerializeStructVariant::end(__st) }}",
                binds.join(", ")
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Deserialize
// ---------------------------------------------------------------------------

/// One positional element: required, or defaulted when the input ends.
fn next_element(index: usize, default: bool, what: &str) -> String {
    let missing = if default {
        "::core::default::Default::default()".to_string()
    } else {
        format!("return ::core::result::Result::Err(::serde::de::Error::invalid_length({index}, &{what:?}))")
    };
    format!(
        "match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
         ::core::option::Option::Some(__v) => __v, \
         ::core::option::Option::None => {missing} }}"
    )
}

/// A visitor struct `vis` whose `visit_seq` builds `ctor` from `fields`.
fn seq_visitor(vis: &str, value: &str, ctor: &str, fields: &Fields, what: &str) -> String {
    let build = match fields {
        Fields::Unit => ctor.to_string(),
        Fields::Tuple(n) => {
            let elems: Vec<String> = (0..*n).map(|i| next_element(i, false, what)).collect();
            format!("{ctor}({})", elems.join(", "))
        }
        Fields::Named(fs) => {
            let elems: Vec<String> = fs
                .iter()
                .enumerate()
                .map(|(i, f)| format!("{}: {}", f.name, next_element(i, f.default, what)))
                .collect();
            format!("{ctor} {{ {} }}", elems.join(", "))
        }
    };
    let extra = match fields {
        Fields::Unit => format!(
            "fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<{value}, __E> {{ \
             ::core::result::Result::Ok({ctor}) }}"
        ),
        Fields::Tuple(1) => format!(
            "fn visit_newtype_struct<__D: ::serde::Deserializer<'de>>(self, __d: __D) \
             -> ::core::result::Result<{value}, __D::Error> {{ \
             ::serde::Deserialize::deserialize(__d).map({ctor}) }}"
        ),
        _ => String::new(),
    };
    format!(
        "struct {vis};
        impl<'de> ::serde::de::Visitor<'de> for {vis} {{
            type Value = {value};
            fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{
                __f.write_str({what:?})
            }}
            {extra}
            #[inline]
            #[allow(unused_mut)]
            fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A)
                -> ::core::result::Result<{value}, __A::Error>
            {{
                ::core::result::Result::Ok({build})
            }}
        }}"
    )
}

fn field_names(fields: &[Field]) -> String {
    let names: Vec<String> = fields.iter().map(|f| format!("{:?}", f.name)).collect();
    format!("&[{}]", names.join(", "))
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => {
            let what = format!("struct {name}");
            let visitor = seq_visitor("__Visitor", name, name, fields, &what);
            let call = match fields {
                Fields::Unit => format!("__d.deserialize_unit_struct({name:?}, __Visitor)"),
                Fields::Tuple(1) => format!("__d.deserialize_newtype_struct({name:?}, __Visitor)"),
                Fields::Tuple(n) => {
                    format!("__d.deserialize_tuple_struct({name:?}, {n}, __Visitor)")
                }
                Fields::Named(fs) => {
                    format!(
                        "__d.deserialize_struct({name:?}, {}, __Visitor)",
                        field_names(fs)
                    )
                }
            };
            format!("{visitor} {call}")
        }
        Body::Enum(variants) => deserialize_enum(name, variants),
    };
    format!(
        "#[automatically_derived]
        impl<'de> ::serde::Deserialize<'de> for {name} {{
            fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D)
                -> ::core::result::Result<Self, __D::Error>
            {{
                {body}
            }}
        }}"
    )
}

fn deserialize_enum(name: &str, variants: &[Variant]) -> String {
    let mut visitors = String::new();
    let mut arms = String::new();
    for (idx, v) in variants.iter().enumerate() {
        let vname = &v.name;
        let ctor = format!("{name}::{vname}");
        let arm = match &v.fields {
            Fields::Unit => format!(
                "{{ ::serde::de::VariantAccess::unit_variant(__variant)?; \
                 ::core::result::Result::Ok({ctor}) }}"
            ),
            Fields::Tuple(1) => {
                format!("::serde::de::VariantAccess::newtype_variant(__variant).map({ctor})")
            }
            fields => {
                let vis = format!("__Variant{idx}");
                let what = format!("variant {name}::{vname}");
                visitors.push_str(&seq_visitor(&vis, name, &ctor, fields, &what));
                match fields {
                    Fields::Tuple(n) => {
                        format!("::serde::de::VariantAccess::tuple_variant(__variant, {n}, {vis})")
                    }
                    Fields::Named(fs) => format!(
                        "::serde::de::VariantAccess::struct_variant(__variant, {}, {vis})",
                        field_names(fs)
                    ),
                    Fields::Unit => unreachable!("unit variants are handled above"),
                }
            }
        };
        arms.push_str(&format!("{idx}u64 => {arm},"));
    }
    let variant_names: Vec<String> = variants.iter().map(|v| format!("{:?}", v.name)).collect();
    let variant_names = variant_names.join(", ");
    format!(
        "{visitors}
        struct __Visitor;
        impl<'de> ::serde::de::Visitor<'de> for __Visitor {{
            type Value = {name};
            fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{
                __f.write_str(\"enum {name}\")
            }}
            fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A)
                -> ::core::result::Result<{name}, __A::Error>
            {{
                let (__idx, __variant) =
                    ::serde::de::EnumAccess::variant::<::serde::de::VariantIndex>(__data)?;
                match __idx.0 {{
                    {arms}
                    __other => ::core::result::Result::Err(::serde::de::Error::custom(
                        ::core::format_args!(\"invalid variant index {{}} for enum {name}\", __other),
                    )),
                }}
            }}
        }}
        __d.deserialize_enum({name:?}, &[{variant_names}], __Visitor)"
    )
}
