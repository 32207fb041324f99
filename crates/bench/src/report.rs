//! Plain-text figure output.
//!
//! Each figure is printed as aligned columns (x value, then one column per
//! series) so the output can be eyeballed against the paper or piped to
//! gnuplot.

/// One plotted line.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Empty series with a label.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Print a table of series sharing an x axis.
pub fn print_series(title: &str, x_label: &str, y_label: &str, series: &[Series]) {
    println!("\n== {title} ==");
    println!("(y: {y_label})");
    print!("{:>14}", x_label);
    for s in series {
        print!("  {:>22}", truncate(&s.name, 22));
    }
    println!();
    let xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.0))
        .fold(Vec::new(), |mut acc, x| {
            if !acc.iter().any(|&v: &f64| (v - x).abs() < 1e-9) {
                acc.push(x);
            }
            acc
        });
    for x in xs {
        print!("{:>14}", format_num(x));
        for s in series {
            match s
                .points
                .iter()
                .find(|p| (p.0 - x).abs() < 1e-9)
                .map(|p| p.1)
            {
                Some(y) => print!("  {:>22}", format_num(y)),
                None => print!("  {:>22}", "-"),
            }
        }
        println!();
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// Compact human formatting: integers plainly, small floats with
/// significant digits, big numbers with thousands grouping.
pub fn format_num(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == v.trunc() && v.abs() < 1e15 {
        let i = v as i64;
        if i.abs() >= 10_000 {
            group_thousands(i)
        } else {
            format!("{i}")
        }
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

fn group_thousands(mut v: i64) -> String {
    let neg = v < 0;
    v = v.abs();
    let mut parts = Vec::new();
    while v >= 1000 {
        parts.push(format!("{:03}", v % 1000));
        v /= 1000;
    }
    parts.push(format!("{v}"));
    parts.reverse();
    format!("{}{}", if neg { "-" } else { "" }, parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(format_num(5.0), "5");
        assert_eq!(format_num(25_000_000.0), "25,000,000");
        assert_eq!(format_num(0.123456789), "0.123457");
        assert_eq!(format_num(2.34567), "2.346");
        assert_eq!(format_num(12345.678), "12345.7");
        assert_eq!(format_num(-12000.0), "-12,000");
    }

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("css");
        s.push(1.0, 2.0);
        s.push(10.0, 3.0);
        assert_eq!(s.points.len(), 2);
    }

    #[test]
    fn print_does_not_panic_on_ragged_series() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        a.push(2.0, 2.0);
        let mut b = Series::new("b");
        b.push(2.0, 4.0);
        print_series("test", "x", "y", &[a, b]);
    }
}
