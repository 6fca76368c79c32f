//! Figure-style table formatting and TSV persistence.

use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Structured error for table construction (no panics on bad input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row's cell count disagrees with the header width.
    RaggedRow {
        /// Number of header columns.
        expected: usize,
        /// Number of cells in the offending row.
        got: usize,
        /// The table's title, for error context.
        table: String,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::RaggedRow {
                expected,
                got,
                table,
            } => write!(
                f,
                "ragged row in table {table:?}: expected {expected} cells, got {got}"
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// A simple column-aligned table with a title, printable and dumpable.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given title and column names.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; errors (leaving the table unchanged) when the cell
    /// count does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) -> Result<(), TableError> {
        if cells.len() != self.header.len() {
            return Err(TableError::RaggedRow {
                expected: self.header.len(),
                got: cells.len(),
                table: self.title.clone(),
            });
        }
        self.rows.push(cells);
        Ok(())
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write as TSV under `results/<name>.tsv` (relative to the workspace
    /// root when run via cargo, else the current directory).
    pub fn save_tsv(&self, name: &str) -> io::Result<PathBuf> {
        let dir = results_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.tsv"));
        let mut body = String::new();
        let _ = writeln!(body, "# {}", self.title);
        let _ = writeln!(body, "{}", self.header.join("\t"));
        for row in &self.rows {
            let _ = writeln!(body, "{}", row.join("\t"));
        }
        fs::write(&path, body)?;
        Ok(path)
    }
}

/// The `results/` directory: the workspace root's when run via cargo
/// (which sets `CARGO_MANIFEST_DIR` to whichever package owns the binary),
/// else `results/` under the current directory.
pub fn results_dir() -> PathBuf {
    if std::env::var_os("CARGO_MANIFEST_DIR").is_some() {
        // This crate's own manifest, fixed at compile time, sits at
        // crates/cdn-sim under the workspace root.
        if let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
            return root.join("results");
        }
    }
    PathBuf::from("results")
}

/// Format a ratio as a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Format bytes as MB with one decimal.
pub fn mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["policy", "mr"]);
        t.row(vec!["LRU".into(), "0.50".into()]).unwrap();
        t.row(vec!["SCIP-long-name".into(), "0.40".into()]).unwrap();
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("SCIP-long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn ragged_rows_are_errors_not_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        let err = t.row(vec!["only-one".into()]).unwrap_err();
        assert_eq!(
            err,
            TableError::RaggedRow {
                expected: 2,
                got: 1,
                table: "demo".into()
            }
        );
        assert!(err.to_string().contains("expected 2 cells"));
        assert!(t.is_empty(), "failed row must not be stored");
    }

    #[test]
    fn tsv_roundtrip() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]).unwrap();
        let path = t.save_tsv("test_table_demo").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("a\tb"));
        assert!(body.contains("1\t2"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(mb(2_500_000), "2.5");
    }
}
