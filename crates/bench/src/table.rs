//! Minimal fixed-width text tables for the experiment reports.

/// A text table with a title, column headers and string rows.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (cells are already formatted).
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl Table {
    /// The table's modeled-milliseconds headline: the sum of every numeric
    /// cell in columns whose header mentions `ms` (case-insensitive).
    /// `None` when the table has no such column or no parseable cell
    /// (`OOM` markers and the like are skipped). This is what
    /// `repro -- bench-json` records per experiment so future changes have
    /// a machine-readable modeled-cost baseline to regress against.
    pub fn modeled_ms_sum(&self) -> Option<f64> {
        let ms_cols: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .filter(|(_, h)| h.to_lowercase().contains("ms"))
            .map(|(i, _)| i)
            .collect();
        if ms_cols.is_empty() {
            return None;
        }
        let mut sum = 0.0f64;
        let mut any = false;
        for row in &self.rows {
            for &c in &ms_cols {
                if let Ok(v) = row[c].trim().parse::<f64>() {
                    sum += v;
                    any = true;
                }
            }
        }
        any.then_some(sum)
    }
}

/// Formats a millisecond value like the paper's plots: three significant
/// digits (whole milliseconds from 100 ms on), `OOM` handled by callers.
/// Below 1 ms the decimals grow, so a sub-millisecond row still shows a
/// change.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 10.0 {
        format!("{ms:.1}")
    } else if ms >= 1.0 || ms <= 0.0 {
        format!("{ms:.2}")
    } else {
        let decimals = (2 - ms.log10().floor() as i32) as usize;
        format!("{ms:.decimals$}")
    }
}

/// Formats a compression rate (`x32/bpe`).
pub fn fmt_rate(rate: f64) -> String {
    format!("{rate:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "123".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn ms_formatting_bands() {
        assert_eq!(fmt_ms(594.4), "594");
        assert_eq!(fmt_ms(16.23), "16.2");
        assert_eq!(fmt_ms(4.567), "4.57");
        assert_eq!(fmt_ms(0.5), "0.500");
        assert_eq!(fmt_ms(0.012345), "0.0123");
        assert_eq!(fmt_ms(0.0), "0.00");
    }
}
