//! Plain-text table rendering and small statistics helpers for the
//! experiment reports.

/// Renders an ASCII table: `header` defines the column titles, `rows` the
/// cells. Column widths adapt to content.
pub(crate) fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let line = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    line(&mut out);
    out.push('|');
    for (h, w) in header.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    line(&mut out);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    line(&mut out);
    out
}

/// Spearman rank correlation between two equally long samples.
///
/// Returns `None` for fewer than two points or mismatched lengths. Ties get
/// the average of their tied ranks.
pub(crate) fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        var_a += (x - mean) * (x - mean);
        var_b += (y - mean) * (y - mean);
    }
    if var_a == 0.0 || var_b == 0.0 {
        return None;
    }
    Some(cov / (var_a.sqrt() * var_b.sqrt()))
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&i, &j| xs[i].partial_cmp(&xs[j]).expect("finite values"));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        // Average rank for ties; ranks are 1-based.
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Formats a float in fixed notation with the given precision.
pub(crate) fn fmt(v: f64, precision: usize) -> String {
    format!("{v:.precision$}")
}

/// Formats an allocation as the paper's `(x1:x2:x3)` notation.
pub(crate) fn fmt_allocation(alloc: &[u32]) -> String {
    let inner: Vec<String> = alloc.iter().map(u32::to_string).collect();
    format!("({})", inner.join(":"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_cells() {
        let s = render_table(
            "demo",
            &["a", "bee"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(s.contains("demo"));
        assert!(s.contains("333"));
        assert!(s.contains("bee"));
    }

    #[test]
    fn spearman_perfect_monotone() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        assert!((spearman(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let rev = [40.0, 30.0, 20.0, 10.0];
        assert!((spearman(&a, &rev).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties_and_degenerate_inputs() {
        let a = [1.0, 1.0, 2.0];
        let b = [5.0, 5.0, 9.0];
        let r = spearman(&a, &b).unwrap();
        assert!(r > 0.9);
        assert!(spearman(&[1.0], &[2.0]).is_none());
        assert!(spearman(&[1.0, 2.0], &[1.0]).is_none());
        assert!(spearman(&[1.0, 1.0], &[2.0, 3.0]).is_none()); // zero variance
    }

    #[test]
    fn ranks_average_ties() {
        assert_eq!(ranks(&[10.0, 20.0, 20.0, 30.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn allocation_formatting() {
        assert_eq!(fmt_allocation(&[10, 11, 1]), "(10:11:1)");
        assert_eq!(fmt(1.23456, 2), "1.23");
    }
}
