//! Plain-text report formatting shared by the experiment runners.

use std::fmt::Write as _;

/// Renders an aligned text table.
///
/// # Example
///
/// ```
/// use ola_harness::report::table;
/// let t = table(&["name", "value"], &[vec!["a".into(), "1".into()]]);
/// assert!(t.contains("name"));
/// assert!(t.contains("a"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                s.push_str("  ");
            }
            let _ = write!(s, "{:>w$}", cell, w = widths[i]);
        }
        s.push('\n');
        s
    };
    out.push_str(&line(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

/// Formats a ratio as a percentage string with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with three significant-ish decimals.
pub fn num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.3}")
    }
}

/// Renders a horizontal ASCII bar of `frac` (0..=1) out of `width` cells.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "bbbb"],
            &[vec!["xx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same length.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pct_and_num() {
        assert_eq!(pct(0.435), "43.5%");
        assert_eq!(num(0.1234), "0.123");
        assert_eq!(num(12.3), "12.30");
        assert_eq!(num(1234.0), "1234");
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(-1.0, 4), "....");
    }
}
