//! # langeq-report
//!
//! Machine-readable records for the workspace's harnesses: a tiny,
//! dependency-free JSON value type ([`Json`]) with a writer and a parser,
//! plus an append-only JSON-Lines writer ([`JsonlWriter`]).
//!
//! The workspace builds in offline environments without serde, so every
//! JSONL artifact the repo produces — the `BENCH_*.json` records emitted by
//! the criterion shim and the sweep journals written by `langeq-core`'s
//! batch engine — goes through this module instead. The subset implemented
//! is exactly what those records need:
//!
//! * values: `null`, booleans, integers (`i64`), floats, strings, arrays,
//!   objects (insertion-ordered, so writes are byte-stable);
//! * writer: compact, no whitespace, `\u` escapes for control characters;
//! * parser: strict per line, with a lenient line-splitter
//!   ([`parse_lines_lossy`]) that skips unparsable lines — a journal whose
//!   final line was truncated by a kill must still load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// A JSON value.
///
/// Objects preserve insertion order, so a record built in a fixed field
/// order serializes to byte-identical text on every run — the property the
/// sweep journal's determinism contract relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every counter and nanosecond field we emit).
    Int(i64),
    /// A float (parsed from any number with a fraction or exponent).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object (append fields with [`set`](Self::set)).
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends (or replaces) a field of an object. Panics on non-objects —
    /// records are always built from [`Json::obj`].
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.to_string(), value));
        }
        self
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only; floats are not coerced).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|n| u64::try_from(n).ok())
    }

    /// The value as an `f64` (accepts both number forms).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value from `text` (the whole string must be one
    /// value, modulo surrounding whitespace).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(n as i64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<u128> for Json {
    fn from(n: u128) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Keep a marker that this was a float, so it round-trips
                    // into `Float` through the parser.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no NaN/Inf; `null` is the least-bad encoding.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure: byte offset and a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    fn at(pos: usize, message: impl Into<String>) -> Self {
        JsonError {
            pos,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts (serde_json's
/// default). The parser recurses once per level, so an unbounded depth lets
/// a few kilobytes of `[` overflow the stack.
const MAX_DEPTH: usize = 128;

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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected `{word}`")))
        }
    }

    /// Parses one value nested inside `depth` open arrays/objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(JsonError::at(self.pos, "nesting too deep"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::at(self.pos, "expected a value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::at(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::at(start, "bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(start, "bad \\u escape"))?;
                            // Surrogate pairs are not needed for our records;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(start, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::at(self.pos, "invalid UTF-8"))?;
                    let Some(c) = s.chars().next() else {
                        return Err(JsonError::at(self.pos, "unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError::at(start, "bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| JsonError::at(start, "bad number"))
        }
    }
}

/// Parses a JSON-Lines document leniently: blank and unparsable lines are
/// skipped. A journal whose last line was cut short by `kill -9` (or a full
/// disk) loads as the records that made it to stable storage — exactly the
/// resume semantics the sweep engine wants.
pub fn parse_lines_lossy(text: &str) -> Vec<Json> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| Json::parse(line).ok())
        .collect()
}

/// An append-only JSON-Lines writer: one [`Json`] record per line, flushed
/// per record so a killed process loses at most the line being written.
#[derive(Debug)]
pub struct JsonlWriter {
    file: std::fs::File,
}

impl JsonlWriter {
    /// Opens `path` for appending, creating it (and missing parent
    /// directories) if needed.
    ///
    /// If the file ends in a partial line — a previous writer was killed
    /// mid-write — a newline is appended first, so the next record starts
    /// on its own line instead of being glued onto (and lost with) the
    /// truncated one.
    pub fn append(path: &Path) -> std::io::Result<JsonlWriter> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let len = file.seek(SeekFrom::End(0))?;
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(JsonlWriter { file })
    }

    /// Appends one record as a line and flushes it.
    pub fn write(&mut self, record: &Json) -> std::io::Result<()> {
        let mut line = record.to_string();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_in_order() {
        let rec = Json::obj()
            .set("name", "table1/sim_s510/partitioned")
            .set("samples", 10usize)
            .set("ok", true)
            .set("ratio", 2.5)
            .set("note", Json::Null);
        let text = rec.to_string();
        assert_eq!(
            text,
            "{\"name\":\"table1/sim_s510/partitioned\",\"samples\":10,\
             \"ok\":true,\"ratio\":2.5,\"note\":null}"
        );
        assert_eq!(Json::parse(&text).unwrap(), rec);
    }

    #[test]
    fn set_replaces_existing_fields() {
        let rec = Json::obj().set("n", 1usize).set("n", 2usize);
        assert_eq!(rec.get("n").and_then(Json::as_i64), Some(2));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "a\"b\\c\nd\te\u{1}f µ";
        let text = Json::Str(tricky.to_string()).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(tricky));
        assert_eq!(
            Json::parse("\"\\u00b5 \\/ ok\"").unwrap().as_str(),
            Some("µ / ok")
        );
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // A whole-valued float keeps its marker through a round trip.
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
    }

    #[test]
    fn arrays_and_nesting_parse() {
        let v = Json::parse("[1, [true, null], {\"k\": \"v\"}]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("k").and_then(Json::as_str), Some("v"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn nesting_is_bounded_before_the_stack() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let over = format!("[{at_limit}]");
        let err = Json::parse(&over).unwrap_err();
        assert!(err.message.contains("nesting too deep"), "{err}");
        // Without the bound, this overflows a 2 MiB stack.
        let hostile = "[".repeat(100_000);
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Json::parse(&hostile).is_err())
            .expect("spawn")
            .join()
            .expect("parser must not overflow the stack");
        assert!(parsed);
    }

    #[test]
    fn lossy_lines_skip_truncation() {
        let text = "{\"cell\":0}\n\n{\"cell\":1}\n{\"cell\":2,\"trunc";
        let records = parse_lines_lossy(text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].get("cell").and_then(Json::as_i64), Some(1));
    }

    #[test]
    fn jsonl_writer_repairs_a_truncated_tail_before_appending() {
        let path =
            std::env::temp_dir().join(format!("langeq-report-trunc-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // A full record plus a partial line with no newline (kill mid-write).
        std::fs::write(&path, "{\"cell\":0}\n{\"cell\":1,\"trunc").unwrap();
        {
            let mut w = JsonlWriter::append(&path).unwrap();
            w.write(&Json::obj().set("cell", 2usize)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_lines_lossy(&text);
        // The new record is on its own line, not glued to the partial one.
        assert_eq!(records.len(), 2, "journal:\n{text}");
        assert_eq!(records[1].get("cell").and_then(Json::as_i64), Some(2));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn jsonl_writer_appends_and_survives_reopen() {
        let path = std::env::temp_dir().join(format!("langeq-report-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut w = JsonlWriter::append(&path).unwrap();
            w.write(&Json::obj().set("cell", 0usize)).unwrap();
        }
        {
            let mut w = JsonlWriter::append(&path).unwrap();
            w.write(&Json::obj().set("cell", 1usize)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_lines_lossy(&text);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("cell").and_then(Json::as_i64), Some(0));
        assert_eq!(records[1].get("cell").and_then(Json::as_i64), Some(1));
        let _ = std::fs::remove_file(&path);
    }
}
