//! A minimal TOML reader for [`crate::spec::ScenarioSpec`].
//!
//! The workspace is dependency-free by policy, so scenario files are
//! parsed by this hand-rolled subset of TOML instead of a `toml` crate.
//! Supported syntax (everything the scenario zoo needs):
//!
//! * `key = value` pairs with bare or double-quoted keys;
//! * values: double-quoted strings (with `\"`, `\\`, `\n`, `\t`, `\r`
//!   escapes), booleans, integers, floats, and single-line arrays of
//!   any of these (nested arrays allowed);
//! * `[dotted.table]` headers and `[[dotted.array]]` array-of-tables
//!   headers;
//! * `#` comments (outside strings) and blank lines.
//!
//! Not supported (and not used by any scenario file): multi-line
//! strings/arrays, inline `{...}` tables, dotted keys in assignments,
//! datetimes.

use std::collections::BTreeMap;

/// A parsed TOML value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// A single-line array.
    Array(Vec<Value>),
    /// A (sub)table; `BTreeMap` so key order is deterministic.
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a string, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer, if it is one.
    pub(crate) fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a float (integers widen losslessly for the i64
    /// range used here).
    pub(crate) fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub(crate) fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a table, if it is one.
    pub(crate) fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }
}

/// A parse failure, with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct TomlError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TomlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TOML parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

fn err(line: usize, message: impl Into<String>) -> TomlError {
    TomlError { line, message: message.into() }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Splits a dotted header path into segments (bare keys only).
fn parse_path(raw: &str, line: usize) -> Result<Vec<String>, TomlError> {
    let mut segments = Vec::new();
    for seg in raw.split('.') {
        let seg = seg.trim();
        if seg.is_empty() {
            return Err(err(line, format!("empty path segment in `{raw}`")));
        }
        segments.push(seg.to_string());
    }
    Ok(segments)
}

/// Walks (creating as needed) to the table at `path`, descending into
/// the **last** element of any array-of-tables along the way.
fn nav<'a>(
    root: &'a mut BTreeMap<String, Value>,
    path: &[String],
    line: usize,
) -> Result<&'a mut BTreeMap<String, Value>, TomlError> {
    let mut current = root;
    for seg in path {
        let entry = current.entry(seg.clone()).or_insert_with(|| Value::Table(BTreeMap::new()));
        current = match entry {
            Value::Table(t) => t,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Table(t)) => t,
                _ => return Err(err(line, format!("`{seg}` is not a table"))),
            },
            _ => return Err(err(line, format!("`{seg}` is not a table"))),
        };
    }
    Ok(current)
}

fn unescape(raw: &str, line: usize) -> Result<String, TomlError> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c == '"' {
            return Err(err(line, "unescaped `\"` before the closing quote"));
        }
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            other => return Err(err(line, format!("unsupported escape `\\{other:?}`"))),
        }
    }
    Ok(out)
}

/// Splits the contents of `[...]` on top-level commas (nesting- and
/// string-aware).
fn split_array_items(raw: &str, line: usize) -> Result<Vec<&str>, TomlError> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut start = 0usize;
    for (i, c) in raw.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth = depth.checked_sub(1).ok_or_else(|| err(line, "unbalanced `]`"))?;
            }
            ',' if !in_str && depth == 0 => {
                items.push(&raw[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_str || depth != 0 {
        return Err(err(line, "unterminated string or bracket in array"));
    }
    // A trailing comma leaves an empty tail (legal TOML); any non-empty
    // tail is the final item.
    let tail = &raw[start..];
    if !tail.trim().is_empty() {
        items.push(tail);
    }
    Ok(items)
}

fn parse_value(raw: &str, line: usize) -> Result<Value, TomlError> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(err(line, "missing value"));
    }
    if let Some(inner) = raw.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or_else(|| err(line, "unterminated string"))?;
        return Ok(Value::Str(unescape(inner, line)?));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| err(line, "unterminated array"))?;
        let mut items = Vec::new();
        for item in split_array_items(inner, line)? {
            let item = item.trim();
            if item.is_empty() {
                return Err(err(line, "empty array item"));
            }
            items.push(parse_value(item, line)?);
        }
        return Ok(Value::Array(items));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(Value::Float(f));
    }
    Err(err(line, format!("unrecognized value `{raw}`")))
}

fn parse_key(raw: &str, line: usize) -> Result<String, TomlError> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('"') {
        let inner =
            inner.strip_suffix('"').ok_or_else(|| err(line, "unterminated quoted key"))?;
        return unescape(inner, line);
    }
    if raw.is_empty() || !raw.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(err(line, format!("invalid bare key `{raw}`")));
    }
    Ok(raw.to_string())
}

/// Parses a TOML document into its root table.
///
/// # Errors
///
/// Returns a [`TomlError`] with the offending line on malformed input.
pub(crate) fn parse(input: &str) -> Result<BTreeMap<String, Value>, TomlError> {
    let mut root = BTreeMap::new();
    let mut current_path: Vec<String> = Vec::new();
    for (idx, raw_line) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(inner) = line.strip_prefix("[[") {
            let inner = inner
                .strip_suffix("]]")
                .ok_or_else(|| err(line_no, "unterminated `[[` header"))?;
            let path = parse_path(inner, line_no)?;
            let (last, parents) =
                path.split_last().ok_or_else(|| err(line_no, "empty header"))?;
            let parent = nav(&mut root, parents, line_no)?;
            let entry = parent.entry(last.clone()).or_insert_with(|| Value::Array(Vec::new()));
            match entry {
                Value::Array(items) => items.push(Value::Table(BTreeMap::new())),
                _ => return Err(err(line_no, format!("`{last}` is not an array of tables"))),
            }
            current_path = path;
            continue;
        }
        if let Some(inner) = line.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| err(line_no, "unterminated `[` header"))?;
            let path = parse_path(inner, line_no)?;
            // Materialize the table (errors if the path crosses a scalar).
            nav(&mut root, &path, line_no)?;
            current_path = path;
            continue;
        }
        let (key_raw, value_raw) = line
            .split_once('=')
            .ok_or_else(|| err(line_no, format!("expected `key = value`, got `{line}`")))?;
        let key = parse_key(key_raw, line_no)?;
        let value = parse_value(value_raw, line_no)?;
        let table = nav(&mut root, &current_path, line_no)?;
        if table.insert(key.clone(), value).is_some() {
            return Err(err(line_no, format!("duplicate key `{key}`")));
        }
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_types() {
        let doc = parse(
            r#"
            name = "flash \"crowd\"" # comment
            peers = 40
            demand = 380.5
            sci = 1e3
            flag = true
            levels = [100, 250.5, 900]
            nested = [[1, 2], [3]]
            "#,
        )
        .unwrap();
        assert_eq!(doc["name"].as_str(), Some("flash \"crowd\""));
        assert_eq!(doc["peers"].as_int(), Some(40));
        assert_eq!(doc["demand"].as_float(), Some(380.5));
        assert_eq!(doc["sci"].as_float(), Some(1000.0));
        assert_eq!(doc["flag"].as_bool(), Some(true));
        let levels = doc["levels"].as_array().unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].as_float(), Some(100.0));
        assert_eq!(doc["nested"].as_array().unwrap()[0].as_array().unwrap().len(), 2);
    }

    #[test]
    fn parses_tables_and_arrays_of_tables() {
        let doc = parse(
            r#"
            version = 1

            [population]
            peers = 10

            [population.learner]
            algorithm = "rths"

            [[helpers]]
            count = 3
            kind = "paper"

            [[helpers]]
            count = 1
            kind = "constant"
            level = 650.0
            "#,
        )
        .unwrap();
        let pop = doc["population"].as_table().unwrap();
        assert_eq!(pop["peers"].as_int(), Some(10));
        assert_eq!(pop["learner"].as_table().unwrap()["algorithm"].as_str(), Some("rths"));
        let helpers = doc["helpers"].as_array().unwrap();
        assert_eq!(helpers.len(), 2);
        assert_eq!(helpers[1].as_table().unwrap()["level"].as_float(), Some(650.0));
    }

    #[test]
    fn keys_after_table_array_attach_to_last_element() {
        let doc =
            parse("[[phase]]\nkind = \"steady\"\n[[phase]]\nkind = \"diurnal\"\n").unwrap();
        let phases = doc["phase"].as_array().unwrap();
        assert_eq!(phases[0].as_table().unwrap()["kind"].as_str(), Some("steady"));
        assert_eq!(phases[1].as_table().unwrap()["kind"].as_str(), Some("diurnal"));
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (doc, expect_line) in [
            ("peers 40", 1),
            ("\n[unterminated", 2),
            ("x = ", 1),
            ("x = \"open", 1),
            ("x = 1\nx = 2", 2),
            ("x = [1, , 2]", 1),
            ("x = wat", 1),
            ("description = \"spike\" seed = 5 \"", 1),
            ("x = 1\ny = [\"a\"b\"]", 2),
            ("\"a\"b\" = 1", 1),
        ] {
            let e = parse(doc).unwrap_err();
            assert_eq!(e.line, expect_line, "{doc:?} -> {e}");
        }
    }

    #[test]
    fn scalar_path_collision_is_an_error() {
        let e = parse("x = 1\n[x]\ny = 2\n").unwrap_err();
        assert!(e.message.contains("not a table"), "{e}");
    }
}
