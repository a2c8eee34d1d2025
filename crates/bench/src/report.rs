//! Aligned table output — each figure binary prints one of these, with the
//! same rows/series the paper's plot shows.

use crate::harness::Sample;
use mpicd_obs::export::escape;

/// A result table: one row per x value (message size or benchmark name),
/// one column per method/series, mean ± std in each cell.
pub struct Table {
    /// Figure/table caption.
    pub title: String,
    /// x-axis column heading.
    pub xlabel: String,
    /// Value unit appended to the header (e.g. `us`, `MB/s`).
    pub unit: String,
    /// Column labels, one per method.
    pub columns: Vec<String>,
    /// Rows: x label → one sample per column (`None` = not applicable).
    pub rows: Vec<(String, Vec<Option<Sample>>)>,
}

impl Table {
    /// Start an empty table.
    pub fn new(title: &str, xlabel: &str, unit: &str, columns: Vec<String>) -> Self {
        Self {
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            unit: unit.to_string(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, x: impl Into<String>, cells: Vec<Option<Sample>>) {
        assert_eq!(cells.len(), self.columns.len(), "cells per column");
        self.rows.push((x.into(), cells));
    }

    /// Render for humans.
    pub fn render(&self) -> String {
        let mut width = vec![self.xlabel.len()];
        width.extend(self.columns.iter().map(|c| c.len().max(18)));
        for (x, _) in &self.rows {
            width[0] = width[0].max(x.len());
        }

        let mut out = String::new();
        out.push_str(&format!("# {} [{}]\n", self.title, self.unit));
        out.push_str(&format!("{:<w$}", self.xlabel, w = width[0] + 2));
        for (c, w) in self.columns.iter().zip(&width[1..]) {
            out.push_str(&format!("{:>w$}", c, w = w + 2));
        }
        out.push('\n');
        for (x, cells) in &self.rows {
            out.push_str(&format!("{:<w$}", x, w = width[0] + 2));
            for (cell, w) in cells.iter().zip(&width[1..]) {
                let text = match cell {
                    Some(s) => format!("{:.2} ±{:.2}", s.mean, s.std),
                    None => "-".to_string(),
                };
                out.push_str(&format!("{:>w$}", text, w = w + 2));
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (machine-readable companion).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.xlabel.to_string());
        for c in &self.columns {
            out.push_str(&format!(",{c}_mean,{c}_std"));
        }
        out.push('\n');
        for (x, cells) in &self.rows {
            out.push_str(x);
            for cell in cells {
                match cell {
                    Some(s) => out.push_str(&format!(",{},{}", s.mean, s.std)),
                    None => out.push_str(",,"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Print both renderings to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        println!("--- csv ---\n{}", self.render_csv());
    }

    /// Render as a JSON document (hand-rolled — the workspace has no JSON
    /// dependency) so CI can publish results as artifacts.
    pub fn render_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"title\": \"{}\",\n", escape(&self.title)));
        out.push_str(&format!("  \"xlabel\": \"{}\",\n", escape(&self.xlabel)));
        out.push_str(&format!("  \"unit\": \"{}\",\n", escape(&self.unit)));
        out.push_str("  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(c)));
        }
        out.push_str("],\n  \"rows\": [\n");
        for (ri, (x, cells)) in self.rows.iter().enumerate() {
            out.push_str(&format!("    {{\"x\": \"{}\", \"cells\": [", escape(x)));
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                match cell {
                    Some(s) => out.push_str(&format!(
                        "{{\"mean\": {}, \"std\": {}, \"p50\": {}, \"p99\": {}}}",
                        num(s.mean),
                        num(s.std),
                        num(s.p50),
                        num(s.p99)
                    )),
                    None => out.push_str("null"),
                }
            }
            out.push_str("]}");
            if ri + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Human-friendly byte-size label (`64`, `4K`, `2M`).
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_gaps() {
        let mut t = Table::new("Fig X", "size", "us", vec!["a".into(), "b".into()]);
        t.push("64", vec![Some(Sample::point(1.5, 0.1)), None]);
        let s = t.render();
        assert!(s.contains("Fig X"));
        assert!(s.contains("1.50"));
        assert!(s.contains('-'));
        let csv = t.render_csv();
        assert!(csv.contains("a_mean"));
        assert!(csv.lines().count() == 2);
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(64), "64");
        assert_eq!(size_label(4096), "4K");
        assert_eq!(size_label(2 << 20), "2M");
        assert_eq!(size_label(1536), "1536");
    }
}
