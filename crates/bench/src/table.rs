//! Minimal table builder: the experiment harnesses print markdown tables to
//! stdout and mirror them into `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple string table with a header row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            let _ = writeln!(out, "| {} |", r.join(" | "));
        }
        out
    }
}

/// Writes `content` under `results/<name>` (creating the directory), best
/// effort: failures are reported to stderr but do not abort the experiment.
///
/// A run manifest (`results/<stem>.manifest.json` — seeds, env knobs, git
/// rev, per-stage timings, estimator audit trail) rides along with every
/// result, and any `CT_TRACE`/`CT_TRACE_JSON` sinks are flushed, so each
/// experiment binary gets observability output for free.
pub fn write_result(name: &str, content: &str) {
    let dir = Path::new("results");
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    if let Err(e) = fs::write(dir.join(name), content) {
        eprintln!("warning: cannot write results/{name}: {e}");
    }
    let stem = name.rsplit_once('.').map_or(name, |(s, _)| s);
    let manifest = format!("{stem}.manifest.json");
    if let Err(e) = ct_obs::write_manifest(&dir.join(&manifest), stem, &[]) {
        eprintln!("warning: cannot write results/{manifest}: {e}");
    }
    ct_obs::flush_env_sinks();
}

/// Writes the run manifest to the path named by the `CT_MANIFEST` env
/// knob, when set — even in smoke mode (unlike [`write_result`], which
/// smoke runs skip). This is how check.sh's PMU drift gate captures two
/// runs' counters for `ct-obs diff` without touching `results/`.
pub fn write_manifest_env(stem: &str) {
    let Ok(path) = std::env::var("CT_MANIFEST") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    if let Err(e) = ct_obs::write_manifest(Path::new(&path), stem, &[]) {
        eprintln!("warning: cannot write manifest {path}: {e}");
    }
    ct_obs::flush_env_sinks();
}

/// Formats a float with 4 decimal places (the report convention).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 2 decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]).row(vec!["3", "4"]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new(vec!["a", "b"]).row(vec!["1"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f4(0.123456), "0.1235");
        assert_eq!(f2(10.0), "10.00");
    }
}
