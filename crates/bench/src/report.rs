//! Plain-text table rendering for the experiment harness.
//!
//! Output goes to stdout in aligned columns so `repro` logs are
//! directly comparable to the paper's tables.

use std::io::Write;

/// A simple aligned-column table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let n = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..n {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (n - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table with a title banner.
    pub fn print(&self, title: &str) {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "\n=== {title} ===");
        let _ = write!(lock, "{}", self.render());
        let _ = lock.flush();
    }
}

/// Formats a float with 4 decimal places (the paper's precision).
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a signed improvement with 4 decimals.
pub fn f4s(v: f64) -> String {
    format!("{v:+.4}")
}

/// Formats a p-value in scientific notation like the paper ("1.89e-2").
pub fn pval(p: Option<f64>) -> String {
    match p {
        Some(p) => format!("{p:.2e}"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1.0"]);
        t.row(vec!["longer-name", "2.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn formatters() {
        assert_eq!(f4(0.7028), "0.7028");
        assert_eq!(f4s(0.0117), "+0.0117");
        assert_eq!(f4s(-0.0117), "-0.0117");
        assert_eq!(pval(Some(0.0189)), "1.89e-2");
        assert_eq!(pval(None), "n/a");
    }
}
