//! Plain-text table rendering for the benchmark binaries.

use std::fmt;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```
/// use smartconf_harness::TextTable;
///
/// let mut t = TextTable::new(vec!["issue", "speedup"]);
/// t.row(vec!["HB3813".into(), "1.36x".into()]);
/// let rendered = t.to_string();
/// assert!(rendered.contains("HB3813"));
/// assert!(rendered.contains("issue"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        TextTable {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(widths.len()) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let render_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            writeln!(f, "| {} |", line.join(" | "))
        };
        render_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long_header"]);
        t.row(vec!["xxxxxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // Both content lines have the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["1".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let s = t.to_string();
        assert!(!s.contains('3'));
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = TextTable::new(vec!["only"]);
        assert!(t.is_empty());
        assert!(t.to_string().contains("only"));
    }
}
