//! Bench-regression comparator (`bench_compare`): parses the
//! `BENCH_*.json` tables emitted by [`crate::emit_json`] and gates on
//! p50/p99 regressions against a committed baseline.
//!
//! Two sources of false alarms shape the design:
//!
//! * Raw MB/s numbers are hardware-bound, so a baseline recorded on one
//!   machine would "regress" on any slower runner. The comparator
//!   normalizes machine speed out by default: the median p50 ratio
//!   (current / baseline) over a table's absolute-unit cells is taken as
//!   the machine scale and divided out before judging. Ratio columns
//!   (`× vs …` speedups) and `count` tables are machine-independent and
//!   are compared unnormalized.
//! * Individual cells are noisy (4-run percentiles swing well past 15%
//!   even on an idle machine), so the *gate* is per **column**: the
//!   geometric mean of the per-row ratios. A real engine regression
//!   shifts every row of its column and survives the averaging; one-cell
//!   noise does not. Per-cell outliers are still reported as context.

use crate::harness::Sample;
use crate::report::Table;

// ---------------------------------------------------------------------------
// Minimal JSON value parser (the workspace has no serde). The one reader
// of every JSON the workspace emits: bench tables, flight dumps, health
// snapshots.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal, kept exact (a `u64` above 2^53 survives).
    Int(i128),
    /// Any other JSON number (fraction or exponent), as f64.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Exact unsigned value, if this is an integer literal in `u64` range
    /// (negative or fractional numbers are `None`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Exact signed value, if this is an integer literal in `i64` range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        let int = text.strip_prefix('-').unwrap_or(text);
        if !int.is_empty() && int.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
        text.parse()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) => {
                    // The emitter writes UTF-8; pass bytes through.
                    let s = &self.bytes[self.pos..];
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&s[..len.min(s.len())]).unwrap_or("\u{fffd}"));
                    self.pos += len.min(s.len());
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Parse a `BENCH_*.json` document back into a [`Table`]. Baselines
/// written before percentiles existed default p50/p99 to the mean.
pub fn parse_table(text: &str) -> Result<Table, String> {
    let v = parse_json(text)?;
    let str_field = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field `{k}`"))
    };
    let columns = v
        .get("columns")
        .and_then(Json::as_arr)
        .ok_or("missing `columns`")?
        .iter()
        .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
        .collect::<Result<Vec<_>, _>>()?;
    let mut table = Table::new(
        &str_field("title")?,
        &str_field("xlabel")?,
        &str_field("unit")?,
        columns,
    );
    for row in v
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing `rows`")?
    {
        let x = row
            .get("x")
            .and_then(Json::as_str)
            .ok_or("row missing `x`")?;
        let cells = row
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("row missing `cells`")?
            .iter()
            .map(|c| match c {
                Json::Null => Ok(None),
                Json::Obj(_) => {
                    let mean = c
                        .get("mean")
                        .and_then(Json::as_f64)
                        .ok_or("cell w/o mean")?;
                    let std = c.get("std").and_then(Json::as_f64).unwrap_or(0.0);
                    let p50 = c.get("p50").and_then(Json::as_f64).unwrap_or(mean);
                    let p99 = c.get("p99").and_then(Json::as_f64).unwrap_or(mean);
                    Ok(Some(Sample {
                        mean,
                        std,
                        p50,
                        p99,
                    }))
                }
                _ => Err("cell is neither object nor null"),
            })
            .collect::<Result<Vec<_>, _>>()?;
        table.push(x, cells);
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Whether a column holds machine-independent ratios rather than values
/// in the table's unit.
fn is_ratio_column(label: &str) -> bool {
    label.contains('×') || label.to_ascii_lowercase().contains("vs ")
}

/// Whether larger values are better for this unit.
fn higher_is_better(unit: &str) -> bool {
    unit.contains("/s") || unit.contains('×')
}

/// Outcome of comparing one current table against its baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Gate failures (column-level regressions, missing cells); empty
    /// means the gate passes.
    pub regressions: Vec<String>,
    /// Per-cell outliers beyond tolerance — context, not gate failures.
    pub outliers: Vec<String>,
    /// Cells compared.
    pub checked: usize,
    /// Machine scale divided out of absolute cells (1.0 when not
    /// normalizing or no absolute cells matched).
    pub scale: f64,
}

/// Compare `cur` against `base`. `tolerance` is fractional (0.15 = 15%)
/// and gates the per-column geometric-mean p50/p99 ratios. With
/// `normalize`, absolute-unit columns are judged against the median
/// machine scale instead of 1.0.
pub fn compare_tables(base: &Table, cur: &Table, tolerance: f64, normalize: bool) -> Comparison {
    let mut out = Comparison {
        scale: 1.0,
        ..Comparison::default()
    };
    let find_cell = |t: &Table, x: &str, col: &str| -> Option<Sample> {
        let ci = t.columns.iter().position(|c| c == col)?;
        let (_, cells) = t.rows.iter().find(|(rx, _)| rx == x)?;
        cells.get(ci).copied().flatten()
    };

    // Pass 1: machine scale over absolute cells (count tables are
    // machine-independent by definition).
    let table_is_counts = base.unit == "count";
    if normalize && !table_is_counts {
        let mut ratios = Vec::new();
        for (x, cells) in &base.rows {
            for (ci, cell) in cells.iter().enumerate() {
                let (Some(b), Some(col)) = (cell, base.columns.get(ci)) else {
                    continue;
                };
                if is_ratio_column(col) || b.p50 <= 0.0 {
                    continue;
                }
                if let Some(c) = find_cell(cur, x, col) {
                    if c.p50 > 0.0 {
                        ratios.push(c.p50 / b.p50);
                    }
                }
            }
        }
        if !ratios.is_empty() {
            ratios.sort_by(f64::total_cmp);
            out.scale = ratios[ratios.len() / 2];
        }
    }

    // Pass 2: per-row ratios, accumulated per column; per-cell outliers
    // recorded as context.
    let judge = |r: f64, higher: bool| {
        if higher {
            r < 1.0 / (1.0 + tolerance)
        } else {
            r > 1.0 + tolerance
        }
    };
    // (log-ratio sums, count) per column × {p50, p99}.
    let mut col_log = vec![[0.0f64; 2]; base.columns.len()];
    let mut col_n = vec![0usize; base.columns.len()];
    for (x, cells) in &base.rows {
        for (ci, cell) in cells.iter().enumerate() {
            let (Some(b), Some(col)) = (cell, base.columns.get(ci)) else {
                continue;
            };
            let Some(c) = find_cell(cur, x, col) else {
                out.regressions.push(format!(
                    "{x}/{col}: present in baseline, missing in current run"
                ));
                continue;
            };
            out.checked += 1;
            let scale = if is_ratio_column(col) || table_is_counts {
                1.0
            } else {
                out.scale
            };
            let higher = is_ratio_column(col) || higher_is_better(&base.unit);
            if b.p50 <= 0.0 || b.p99 <= 0.0 || c.p50 <= 0.0 || c.p99 <= 0.0 {
                continue;
            }
            let r50 = c.p50 / b.p50 / scale;
            let r99 = c.p99 / b.p99 / scale;
            col_log[ci][0] += r50.ln();
            col_log[ci][1] += r99.ln();
            col_n[ci] += 1;
            for (stat, r) in [("p50", r50), ("p99", r99)] {
                if judge(r, higher) {
                    out.outliers.push(format!(
                        "{x}/{col} {stat}: ×{r:.3} after ×{scale:.3} machine scale"
                    ));
                }
            }
        }
    }

    // Pass 3: gate each column on its geometric-mean ratio.
    for (ci, col) in base.columns.iter().enumerate() {
        if col_n[ci] == 0 {
            continue;
        }
        let higher = is_ratio_column(col) || higher_is_better(&base.unit);
        for (si, stat) in ["p50", "p99"].iter().enumerate() {
            let gm = (col_log[ci][si] / col_n[ci] as f64).exp();
            if judge(gm, higher) {
                out.regressions.push(format!(
                    "column `{col}` {stat}: geomean ×{gm:.3} over {} row(s) \
                     (machine scale ×{:.3}, tolerance {:.0}%)",
                    col_n[ci],
                    out.scale,
                    tolerance * 100.0
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(unit: &str, vals: &[(&str, &[f64])]) -> Table {
        let cols: Vec<String> = (0..vals[0].1.len()).map(|i| format!("m{i}")).collect();
        let mut t = Table::new("t", "x", unit, cols);
        for (x, row) in vals {
            t.push(
                *x,
                row.iter().map(|&v| Some(Sample::point(v, 0.0))).collect(),
            );
        }
        t
    }

    #[test]
    fn json_roundtrip_preserves_cells() {
        let mut t = Table::new("T \"q\"", "size", "MB/s", vec!["a".into(), "b".into()]);
        t.push(
            "64",
            vec![Some(Sample::from_values(&[1.0, 3.0, 2.0])), None],
        );
        let back = parse_table(&t.render_json()).unwrap();
        assert_eq!(back.title, "T \"q\"");
        assert_eq!(back.unit, "MB/s");
        let s = back.rows[0].1[0].unwrap();
        assert_eq!((s.mean, s.p50, s.p99), (2.0, 2.0, 3.0));
        assert!(back.rows[0].1[1].is_none());
    }

    #[test]
    fn old_baselines_without_percentiles_still_parse() {
        let text = r#"{"title":"t","xlabel":"x","unit":"us",
            "columns":["a"],
            "rows":[{"x":"64","cells":[{"mean": 2.5, "std": 0.5}]}]}"#;
        let t = parse_table(text).unwrap();
        let s = t.rows[0].1[0].unwrap();
        assert_eq!((s.p50, s.p99), (2.5, 2.5), "defaults to the mean");
    }

    #[test]
    fn identical_tables_pass() {
        let t = table("MB/s", &[("64", &[10.0, 20.0]), ("128", &[12.0, 24.0])]);
        let c = compare_tables(&t, &t, 0.15, true);
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
        assert_eq!(c.checked, 4);
        assert_eq!(c.scale, 1.0);
    }

    #[test]
    fn uniform_machine_slowdown_is_normalized_away() {
        let base = table("MB/s", &[("64", &[10.0, 20.0]), ("128", &[12.0, 24.0])]);
        let cur = table("MB/s", &[("64", &[5.0, 10.0]), ("128", &[6.0, 12.0])]);
        let c = compare_tables(&base, &cur, 0.15, true);
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
        assert!((c.scale - 0.5).abs() < 1e-9);
        // ... but not when normalization is off.
        let c = compare_tables(&base, &cur, 0.15, false);
        assert!(!c.regressions.is_empty());
    }

    #[test]
    fn one_method_falling_behind_is_flagged() {
        let base = table("MB/s", &[("64", &[10.0, 20.0]), ("128", &[12.0, 24.0])]);
        // m1 lost 40% at one of two rows: geomean √0.6 ≈ 0.775 trips the
        // column gate, and the cell shows up as an outlier.
        let cur = table("MB/s", &[("64", &[10.0, 12.0]), ("128", &[12.0, 24.0])]);
        let c = compare_tables(&base, &cur, 0.15, true);
        assert_eq!(c.regressions.len(), 2, "{:?}", c.regressions); // p50 + p99
        assert!(c.regressions[0].contains("column `m1`"));
        assert!(c.outliers.iter().any(|o| o.contains("64/m1")));
        // A single noisy cell in a long column does NOT trip the gate.
        let rows: Vec<(String, Vec<f64>)> = (0..16)
            .map(|i| {
                (
                    format!("r{i}"),
                    vec![10.0, if i == 0 { 12.0 } else { 20.0 }],
                )
            })
            .collect();
        let noisy: Vec<(&str, &[f64])> = rows
            .iter()
            .map(|(x, v)| (x.as_str(), v.as_slice()))
            .collect();
        let base16 = table(
            "MB/s",
            &rows
                .iter()
                .map(|(x, _)| (x.as_str(), [10.0, 20.0].as_slice()))
                .collect::<Vec<_>>(),
        );
        let c = compare_tables(&base16, &table("MB/s", &noisy), 0.15, true);
        assert!(c.regressions.is_empty(), "{:?}", c.regressions);
        assert_eq!(c.outliers.len(), 2, "{:?}", c.outliers);
    }

    #[test]
    fn latency_direction_is_lower_better() {
        let base = table("us", &[("64", &[10.0])]);
        let worse = table("us", &[("64", &[13.0])]);
        // Normalization would hide a single-cell table's regression (the
        // median IS the cell), so judge latency unnormalized.
        let c = compare_tables(&base, &worse, 0.15, false);
        assert_eq!(c.regressions.len(), 2, "{:?}", c.regressions);
        let better = table("us", &[("64", &[8.0])]);
        let c = compare_tables(&base, &better, 0.15, false);
        assert!(c.regressions.is_empty(), "faster is not a regression");
    }

    #[test]
    fn ratio_columns_skip_machine_scale() {
        let mut base = Table::new("t", "x", "MB/s", vec!["a".into(), "× vs a".into()]);
        base.push(
            "64",
            vec![
                Some(Sample::point(10.0, 0.0)),
                Some(Sample::point(2.0, 0.0)),
            ],
        );
        // Machine half speed, but the speedup ratio collapsed too: the
        // ratio column must be judged at scale 1 and flagged.
        let mut cur = Table::new("t", "x", "MB/s", vec!["a".into(), "× vs a".into()]);
        cur.push(
            "64",
            vec![Some(Sample::point(5.0, 0.0)), Some(Sample::point(1.0, 0.0))],
        );
        let c = compare_tables(&base, &cur, 0.15, true);
        assert!(
            c.regressions.iter().all(|r| r.contains("× vs a")),
            "{:?}",
            c.regressions
        );
        assert!(!c.regressions.is_empty());
    }

    #[test]
    fn missing_cells_are_regressions() {
        let base = table("MB/s", &[("64", &[10.0, 20.0])]);
        let mut cur = Table::new("t", "x", "MB/s", vec!["m0".into()]);
        cur.push("64", vec![Some(Sample::point(10.0, 0.0))]);
        let c = compare_tables(&base, &cur, 0.15, true);
        assert!(c.regressions.iter().any(|r| r.contains("missing")));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":").is_err());
        assert!(parse_json("[1,2").is_err());
        assert!(parse_table("{\"title\":\"t\"}").is_err());
        // Escapes decode.
        let v = parse_json(r#""a\"bA\\""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"bA\\"));
    }

    #[test]
    fn integers_stay_exact() {
        let v = parse_json("[9007199254740993,-1,2.5,1e3]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_u64(), Some((1 << 53) + 1));
        assert_eq!(items[1].as_u64(), None, "negative is not unsigned");
        assert_eq!(items[1].as_i64(), Some(-1));
        assert_eq!(items[2].as_u64(), None, "fraction is not an integer");
        assert_eq!(items[2].as_f64(), Some(2.5));
        assert_eq!(items[3].as_f64(), Some(1000.0));
    }
}
