//! Result presentation: aligned console tables plus JSON-lines archives
//! under `results/`.

use gogreen_util::json::ToJson;
use gogreen_util::Json;
use std::io::Write;
use std::path::PathBuf;

/// Writes experiment outputs: pretty tables to stdout, JSON lines to
/// `results/<name>.jsonl` (one line per invocation, so re-runs append a
/// history).
pub struct Reporter {
    results_dir: PathBuf,
}

impl Reporter {
    /// A reporter writing under `dir` (created on demand).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Reporter { results_dir: dir.into() }
    }

    /// Appends `record` as one JSON line to `<name>.jsonl`.
    pub fn save_json(&self, name: &str, record: &impl ToJson) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.results_dir)?;
        let path = self.results_dir.join(format!("{name}.jsonl"));
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(record.to_json().dump().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(())
    }

    /// Prints `records` under `title` and appends each to `<name>.jsonl`.
    pub fn emit(&self, name: &str, title: &str, records: &[Json]) -> std::io::Result<()> {
        print!("\n== {title} ==\n\n{}", render_records(records));
        records.iter().try_for_each(|r| self.save_json(name, r))
    }
}

/// Renders records as a table of their scalar columns. A record holding
/// a `rows` array prints its scalars on one line and its rows as a
/// table of their own.
pub fn render_records(records: &[Json]) -> String {
    let mut out = String::new();
    let mut flat: Vec<Vec<(&str, String)>> = Vec::new();
    for record in records {
        match record.get("rows").and_then(Json::as_arr) {
            Some(rows) => {
                let line: Vec<String> =
                    scalars(record).into_iter().map(|(k, v)| format!("{k}={v}")).collect();
                out.push_str(&format!("{}\n\n{}", line.join(" "), render_records(rows)));
            }
            None => flat.push(scalars(record)),
        }
    }
    if let Some(first) = flat.first() {
        let headers: Vec<&str> = first.iter().map(|&(k, _)| k).collect();
        let rows: Vec<Vec<String>> =
            flat.into_iter().map(|r| r.into_iter().map(|(_, v)| v).collect()).collect();
        out.push_str(&render_table(&headers, &rows));
    }
    out
}

/// A record's scalar fields, formatted: seconds adaptively, integers
/// plainly, other numbers to three decimals.
fn scalars(record: &Json) -> Vec<(&str, String)> {
    let Json::Obj(fields) = record else { return Vec::new() };
    let cell = |key: &str, value: &Json| match value {
        Json::Num(x) if key.ends_with("_s") || key.contains("secs") || key.starts_with("t_") => {
            Some(fmt_secs(*x))
        }
        Json::Num(x) if x.fract() == 0.0 => Some(format!("{x:.0}")),
        Json::Num(x) => Some(format!("{x:.3}")),
        Json::Str(s) => Some(s.clone()),
        Json::Bool(b) => Some(b.to_string()),
        Json::Null => Some("—".to_owned()),
        Json::Arr(_) | Json::Obj(_) => None,
    };
    fields.iter().filter_map(|(k, v)| Some((k.as_str(), cell(k, v)?))).collect()
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            if k < widths.len() {
                widths[k] = widths[k].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (k, cell) in cells.iter().enumerate() {
            if k > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>width$}", width = widths[k]));
        }
        line.push('\n');
        line
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&headers_owned, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Formats seconds with adaptive precision.
pub fn fmt_secs(s: f64) -> String {
    if s >= 10.0 {
        format!("{s:.1}s")
    } else if s >= 0.1 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

/// Formats a speedup factor.
pub fn fmt_speedup(baseline: f64, variant: f64) -> String {
    if variant <= 0.0 {
        "-".to_owned()
    } else {
        format!("{:.1}x", baseline / variant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["long-name".into(), "12345".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("long-name"));
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(fmt_secs(12.34), "12.3s");
        assert_eq!(fmt_secs(0.5), "0.50s");
        assert_eq!(fmt_secs(0.0123), "12.3ms");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(10.0, 1.0), "10.0x");
        assert_eq!(fmt_speedup(1.0, 0.0), "-");
    }

    #[test]
    fn reporter_appends_json_lines() {
        let dir = std::env::temp_dir().join(format!("gogreen-report-{}", std::process::id()));
        let r = Reporter::new(&dir);
        struct Rec {
            x: u32,
        }
        impl ToJson for Rec {
            fn to_json(&self) -> gogreen_util::Json {
                gogreen_util::Json::obj([("x", self.x.into())])
            }
        }
        r.save_json("t", &Rec { x: 1 }).unwrap();
        r.save_json("t", &Rec { x: 2 }).unwrap();
        let text = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
