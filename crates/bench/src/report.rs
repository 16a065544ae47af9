//! Plain-text reporting: aligned tables, percentage formatting, CDF
//! series, and sparkline-style time series for the figures.

use pact_workloads::suite::Scale;

/// A simple aligned-column text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
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

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                if i == 0 {
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a slowdown fraction as a percentage (`0.26` → `"26.0%"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a count compactly (`1_234_567` → `"1.2M"`, `45_300` → `"45.3K"`).
pub fn count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.0}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}K", n as f64 / 1e3)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// Renders a time series as a unicode sparkline (one char per bucket,
/// downsampled to `width`).
pub fn sparkline(series: &[f64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() || width == 0 {
        return String::new();
    }
    let bucket = series.len().div_ceil(width);
    let vals: Vec<f64> = series
        .chunks(bucket)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-12);
    vals.iter()
        .map(|v| BARS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

/// Emits a CDF as `value<TAB>fraction` lines at `points` evenly spaced
/// percentiles.
pub fn cdf_lines(sorted_values: &[f64], points: usize) -> String {
    let mut out = String::new();
    if sorted_values.is_empty() {
        return out;
    }
    for i in 0..=points {
        let q = i as f64 / points as f64;
        let idx = ((sorted_values.len() - 1) as f64 * q).round() as usize;
        out.push_str(&format!("{:>8.3}\t{:.2}\n", sorted_values[idx], q));
    }
    out
}

/// Section banner used by the figures.
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

/// Writes `contents` to `results/<name>` (creating the directory),
/// printing the path; errors are reported but not fatal so a read-only
/// checkout still prints results to stdout.
///
/// Only paper-scale runs are saved: `results/` holds the committed
/// paper-scale outputs, and a smoke run must not overwrite them. At
/// smoke scale the call writes nothing and says so on stderr.
pub fn save_results(scale: Scale, name: &str, contents: &str) {
    save_results_in(std::path::Path::new("results"), scale, name, contents);
}

fn save_results_in(dir: &std::path::Path, scale: Scale, name: &str, contents: &str) {
    if scale != Scale::Paper {
        eprintln!("[not saved: {name} is written under results/ only at --scale paper]");
        return;
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_paper_scale_results_are_saved() {
        let dir = std::env::temp_dir().join(format!("pact-save-results-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        save_results_in(&dir, Scale::Smoke, "smoke.txt", "x");
        assert!(!dir.exists(), "a smoke-scale save must write nothing");
        save_results_in(&dir, Scale::Paper, "paper.txt", "y");
        assert_eq!(std::fs::read_to_string(dir.join("paper.txt")).unwrap(), "y");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].ends_with("12345"));
        // All rows equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn table_checks_columns() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn pct_and_count_formats() {
        assert_eq!(pct(0.256), "25.6%");
        assert_eq!(count(999), "999");
        assert_eq!(count(45_300), "45K");
        assert_eq!(count(1_234_567), "1.2M");
        assert_eq!(count(123_456_789), "123M");
    }

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[], 4), "");
    }

    #[test]
    fn cdf_lines_cover_range() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let s = cdf_lines(&vals, 4);
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("1.00"));
    }
}
