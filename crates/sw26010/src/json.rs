//! The JSON layer shared by every exporter in the workspace.
//!
//! The machine-model stack is dependency-free, so the Chrome-trace export,
//! the telemetry snapshot/Perfetto exporters, the profiler artifacts, the
//! tuner checkpoint and the bench journal all write and read JSON through
//! this module, and through nothing else:
//!
//! * [`Writer`] — a comma-placing writer over a `String`: `begin_obj` /
//!   `end_obj` / `begin_arr` / `end_arr` nest, [`Writer::field`] and
//!   [`Writer::value`] render any [`Value`] (strings escaped, integers
//!   exact, floats as plain decimals, `None` and non-finite floats as
//!   `null`, `format_args!` verbatim for fixed-precision numbers),
//!   [`Writer::raw`] splices an already-rendered document, and
//!   [`Writer::trace_events`] / [`Writer::trace_event`] /
//!   [`Writer::thread_name`] frame a Chrome/Perfetto trace-event document
//!   with one event per line. A type with a JSON shape of its own
//!   implements [`Value`] next to its definition
//!   ([`Counters`](crate::Counters), [`Timeline`](crate::profile::Timeline));
//! * [`escape_json`] / [`fmt_f64`] — the writer's string escaping and float
//!   formatting as free functions, for callers that build text around them;
//! * [`Json`] / [`parse`] — a minimal value model and recursive-descent
//!   parser for readers (journal, checkpoint, tests) that must not trust
//!   their input.
//!
//! Numbers are kept as their literal text ([`Json::Num`] stores the raw
//! slice) so integer fields survive the round trip exactly — `u64::MAX`
//! cycles would be corrupted by an intermediate `f64`.

use std::fmt::{self, Write as _};

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Escape a string for embedding inside a JSON string literal. Handles
/// quotes, backslashes and control characters; everything else, including
/// non-ASCII, passes through as UTF-8.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Render a float as a JSON value: plain decimal (Rust's `Display` never
/// prints an exponent), or `null` when non-finite.
pub fn fmt_f64(v: f64) -> String {
    to_string(v)
}

/// Render one [`Value`] as a document.
pub fn to_string(v: impl Value) -> String {
    let mut w = Writer::new();
    w.value(v);
    w.finish()
}

/// Something the [`Writer`] can render as one JSON value.
pub trait Value {
    fn write_json(&self, w: &mut Writer);
}

/// A JSON writer over a `String` that places the commas itself. Nesting is
/// the caller's to balance (`begin_*` / `end_*`); every method returns the
/// writer so a record reads as one chain.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    /// The next element at this position needs a separator before it.
    comma: bool,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Separator before an element, then mark the position as occupied.
    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        escape_into(&mut self.out, key);
        self.out.push_str("\":");
        self.comma = false;
        self
    }

    /// One value: an array element, or the value of the last [`Writer::key`].
    pub fn value(&mut self, v: impl Value) -> &mut Self {
        v.write_json(self);
        self
    }

    /// `"key":value`.
    pub fn field(&mut self, key: &str, v: impl Value) -> &mut Self {
        self.key(key).value(v)
    }

    /// Splice an already-rendered JSON document in as one value.
    pub fn raw(&mut self, document: &str) -> &mut Self {
        self.sep();
        self.out.push_str(document);
        self
    }

    /// Start the next element of the open array on a line of its own.
    pub fn line(&mut self) -> &mut Self {
        self.out.push_str(if self.comma { ",\n" } else { "\n" });
        self.comma = false;
        self
    }

    pub fn finish(self) -> String {
        self.out
    }

    /// Close a one-element-per-line array that is the last field of the
    /// top-level object, and end the document with a newline.
    pub fn finish_lines(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }

    /// A Chrome/Perfetto trace-event document, open for
    /// [`Writer::trace_event`]s; close it with [`Writer::finish_lines`].
    pub fn trace_events() -> Writer {
        let mut w = Writer::new();
        w.begin_obj().key("traceEvents").begin_arr();
        w
    }

    /// Open a trace event on its own line with the four fields every phase
    /// carries; the caller adds `ts` / `dur` / `args` and ends the object.
    pub fn trace_event(&mut self, name: &str, ph: &str, pid: u32, tid: usize) -> &mut Self {
        self.line().begin_obj().field("name", name).field("ph", ph);
        self.field("pid", pid).field("tid", tid)
    }

    /// The metadata event naming track `tid`.
    pub fn thread_name(&mut self, pid: u32, tid: usize, name: &str) -> &mut Self {
        self.trace_event("thread_name", "M", pid, tid).key("args").begin_obj();
        self.field("name", name).end_obj().end_obj()
    }
}

/// Rendered verbatim through `Display`: `format_args!("{x:.3}")` for the
/// fixed-precision timestamps, and every integer below.
impl Value for fmt::Arguments<'_> {
    fn write_json(&self, w: &mut Writer) {
        w.sep();
        let _ = w.out.write_fmt(*self);
    }
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, w: &mut Writer) {
                w.value(format_args!("{self}"));
            }
        }
    )*};
}
integer_values!(u32, u64, usize, i64);

impl Value for bool {
    fn write_json(&self, w: &mut Writer) {
        w.raw(if *self { "true" } else { "false" });
    }
}

/// Plain decimal, or `null` when non-finite (JSON has no NaN/Infinity).
impl Value for f64 {
    fn write_json(&self, w: &mut Writer) {
        if self.is_finite() {
            w.value(format_args!("{self}"));
        } else {
            w.raw("null");
        }
    }
}

impl Value for str {
    fn write_json(&self, w: &mut Writer) {
        w.sep();
        w.out.push('"');
        escape_into(&mut w.out, self);
        w.out.push('"');
    }
}

impl Value for String {
    fn write_json(&self, w: &mut Writer) {
        self.as_str().write_json(w);
    }
}

impl<T: Value> Value for Option<T> {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Some(v) => v.write_json(w),
            None => {
                w.raw("null");
            }
        }
    }
}

impl<T: Value> Value for [T] {
    fn write_json(&self, w: &mut Writer) {
        w.begin_arr();
        for v in self {
            v.write_json(w);
        }
        w.end_arr();
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, w: &mut Writer) {
        (**self).write_json(w);
    }
}

/// A parsed JSON value. Numbers keep their literal text; convert with
/// [`Json::as_u64`] / [`Json::as_f64`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The literal number text, e.g. `"-1.5e3"`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; the writers never duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Json::get`] but with a contextual error.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing key \"{key}\""))
    }

    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) => {
                n.parse().map_err(|_| format!("{what}: {n:?} is not an unsigned integer"))
            }
            _ => Err(format!("{what}: expected a number")),
        }
    }

    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("{what}: {n:?} is not a number")),
            _ => Err(format!("{what}: expected a number")),
        }
    }

    /// A float that may be written as `null` (absent / non-finite).
    pub fn as_opt_f64(&self, what: &str) -> Result<Option<f64>, String> {
        match self {
            Json::Null => Ok(None),
            _ => self.as_f64(what).map(Some),
        }
    }

    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what}: expected a string")),
        }
    }

    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("{what}: expected an array")),
        }
    }
}

/// Parse a complete JSON document. Rejects trailing data, raw control bytes
/// in strings, malformed escapes and truncated input — a hand-edited or
/// corrupted file is reported, not trusted.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn lit(&mut self, lit: &[u8], v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'n' => self.lit(b"null", Json::Null),
            b't' => self.lit(b"true", Json::Bool(true)),
            b'f' => self.lit(b"false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if self.peek()? != b':' {
                        return Err(format!("expected ':' at byte {}", self.pos));
                    }
                    self.pos += 1;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            c if c == b'-' || c.is_ascii_digit() => self.number(),
            c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos - s
        };
        if digits(self) == 0 {
            return Err(format!("bad number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(format!("bad fraction at byte {start}"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(format!("bad exponent at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        Ok(Json::Num(text.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek()? != b'"' {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid utf-8 in string".to_string())?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(0x00..=0x1f) => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc =
                        self.bytes.get(self.pos).ok_or_else(|| "truncated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => return Err(format!("unknown escape '\\{}'", *c as char)),
                    }
                }
                Some(_) => unreachable!("scan stops only at quote, backslash or control"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(hex)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("lone high surrogate".to_string());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate".to_string());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid code point {code:#x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape_json("x\ny\tz\r"), "x\\ny\\tz\\r");
        assert_eq!(escape_json("\u{1}\u{1f}"), "\\u0001\\u001f");
        // 0x20 (space) and above pass through.
        assert_eq!(escape_json(" !"), " !");
    }

    #[test]
    fn escape_passes_non_ascii_through() {
        assert_eq!(escape_json("héllo \u{1F600} 中文"), "héllo \u{1F600} 中文");
    }

    #[test]
    fn escaped_strings_parse_back_to_the_original() {
        for s in ["quote \" back \\ slash", "tab\there\nnewline", "\u{1} café \u{1F600}"] {
            let doc = format!("\"{}\"", escape_json(s));
            assert_eq!(parse(&doc).unwrap(), Json::Str(s.to_string()), "{doc}");
        }
    }

    #[test]
    fn fmt_f64_is_always_valid_json() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(-3.0), "-3");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        // `Display` never prints an exponent, whatever the magnitude.
        for v in [1e-9, 1e21, 5e-324, f64::MAX] {
            let s = fmt_f64(v);
            assert!(!s.contains(['e', 'E']), "{s}");
            assert_eq!(parse(&s).unwrap().as_f64("v").unwrap(), v);
        }
    }

    #[test]
    fn writer_places_commas_through_any_nesting() {
        let mut w = Writer::new();
        w.begin_obj().field("a", 1u64).key("b").begin_arr();
        w.begin_obj().end_obj().begin_arr().end_arr().value(-2i64).value(true);
        w.end_arr().key("c").begin_obj().field("d", "x").end_obj().field("e", 1.5).end_obj();
        assert_eq!(w.finish(), "{\"a\":1,\"b\":[{},[],-2,true],\"c\":{\"d\":\"x\"},\"e\":1.5}");
        assert_eq!(to_string(&[1u64, 2, 3][..]), "[1,2,3]");
        assert_eq!(to_string(&[] as &[u64]), "[]");
    }

    #[test]
    fn writer_renders_absent_and_non_finite_as_null_and_integers_exactly() {
        let mut w = Writer::new();
        w.begin_obj()
            .field("none", None::<f64>)
            .field("nan", f64::NAN)
            .field("some_inf", Some(f64::INFINITY))
            .field("max", u64::MAX)
            .field("opt", Some("s"))
            .field("ts", format_args!("{:.3}", 2.0f64 / 3.0))
            .key("spliced")
            .raw("[null]")
            .end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            "{\"none\":null,\"nan\":null,\"some_inf\":null,\"max\":18446744073709551615,\
             \"opt\":\"s\",\"ts\":0.667,\"spliced\":[null]}"
        );
        assert_eq!(parse(&text).unwrap().field("max").unwrap().as_u64("max").unwrap(), u64::MAX);
    }

    #[test]
    fn written_strings_and_keys_parse_back_to_the_original() {
        for s in ["quote \" back \\ slash", "tab\there\nnew\rline", "\u{1} caf\u{e9} \u{1F600}"] {
            let mut w = Writer::new();
            w.begin_obj().field(s, s).end_obj();
            let doc = parse(&w.finish()).unwrap();
            assert_eq!(doc, Json::Obj(vec![(s.to_string(), Json::Str(s.to_string()))]));
        }
    }

    #[test]
    fn trace_event_documents_hold_one_event_per_line() {
        assert_eq!(Writer::trace_events().finish_lines(), "{\"traceEvents\":[\n]}\n");
        let mut w = Writer::trace_events();
        w.trace_event("a \"b\"", "X", 0, 1).field("ts", format_args!("{:.3}", 1.0)).end_obj();
        w.thread_name(0, 1, "DMA engine");
        let text = w.finish_lines();
        assert_eq!(
            text,
            "{\"traceEvents\":[\n\
             {\"name\":\"a \\\"b\\\"\",\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.000},\n\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\
             \"args\":{\"name\":\"DMA engine\"}}\n]}\n"
        );
        let doc = parse(&text).unwrap();
        assert_eq!(doc.field("traceEvents").unwrap().as_arr("events").unwrap().len(), 2);
    }

    #[test]
    fn parse_accepts_the_full_value_model() {
        let v = parse("{\"a\":[1,-2.5,3e4,\"x\",true,false,null],\"b\":{}}").unwrap();
        let a = v.field("a").unwrap().as_arr("a").unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(a[0].as_u64("n").unwrap(), 1);
        assert!((a[1].as_f64("f").unwrap() + 2.5).abs() < 1e-12);
        assert!((a[2].as_f64("e").unwrap() - 3e4).abs() < 1e-9);
        assert_eq!(a[3].as_str("s").unwrap(), "x");
        assert_eq!(a[4], Json::Bool(true));
        assert_eq!(a[6], Json::Null);
        assert_eq!(v.field("b").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn numbers_keep_u64_exactness() {
        let v = parse(&format!("{{\"c\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.field("c").unwrap().as_u64("c").unwrap(), u64::MAX);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"raw\x01control\"").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn opt_f64_treats_null_as_absent() {
        let v = parse("{\"x\":null,\"y\":2.5}").unwrap();
        assert_eq!(v.field("x").unwrap().as_opt_f64("x").unwrap(), None);
        assert_eq!(v.field("y").unwrap().as_opt_f64("y").unwrap(), Some(2.5));
    }
}
