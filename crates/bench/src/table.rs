//! Plain-text table rendering for the report binary.

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            s.trim_end().to_string()
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Format seconds compactly.
pub(crate) fn secs(t: f64) -> String {
    if t < 0.1 {
        format!("{:.3}s", t)
    } else if t < 10.0 {
        format!("{:.2}s", t)
    } else {
        format!("{:.1}s", t)
    }
}

/// Format watt-hours compactly.
pub(crate) fn wh(e: f64) -> String {
    format!("{e:.3}Wh")
}

/// Format bytes with a unit.
pub(crate) fn bytes(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.2}MB", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}kB", n as f64 / 1e3)
    } else {
        format!("{n}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["Model", "CLIP"]);
        t.row(["SD 2.1", "0.19"]);
        t.row(["DALLE 3 long name", "0.32"]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("Model"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(0.05), "0.050s");
        assert_eq!(secs(6.2), "6.20s");
        assert_eq!(secs(310.0), "310.0s");
        assert_eq!(wh(0.21), "0.210Wh");
        assert_eq!(bytes(428), "428B");
        assert_eq!(bytes(8_920), "8.92kB");
        assert_eq!(bytes(1_400_000), "1.40MB");
    }
}
