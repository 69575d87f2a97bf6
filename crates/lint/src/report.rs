//! Diagnostic types and the deterministic, machine-readable lint report.
//!
//! Every lint in this crate produces [`Diagnostic`]s: a typed code (which
//! fixes the severity), a primary *span* (the op index the finding anchors
//! to), and optional structured context (related op, target line,
//! `pre_obj`, window arithmetic, BMO stack). [`LintReport::to_json`] renders the report with
//! a fixed field order and sorted diagnostics so that output is
//! byte-deterministic across runs and worker counts.

use janus_trace::json;

/// The lint that produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// §6 misuse 1: a store overwrites pre-executed data (stale hint).
    ModifiedAfterPre,
    /// §6 misuse 2: a pre-execution request no write ever consumes.
    UselessPre,
    /// §6 misuse 3: the request→writeback window is smaller than the BMO
    /// critical path.
    InsufficientWindow,
    /// A `PRE_*` call that duplicates a still-live request (same target,
    /// same hinted data) or a `PRE_INIT` whose object is never used.
    RedundantPre,
    /// More live pre-execution results than the configured IRB can hold.
    IrbPressure,
    /// Persist-ordering hazard inside a transaction: a store left dirty
    /// after its last flush, or a flush left unordered before commit.
    PersistOrdering,
    /// A BMO stack whose declared inter edges close a dependency cycle.
    GraphCycle,
    /// A BMO stack declaring the same inter edge twice.
    GraphDuplicateEdge,
    /// A dependency edge implied by a longer path (transitively redundant).
    GraphRedundantEdge,
    /// A BMO whose declared pre-executability class disagrees with the
    /// external inputs of its sub-operation fragment.
    GraphClassMismatch,
}

impl LintCode {
    /// The stable kebab-case identifier used in JSON output and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::ModifiedAfterPre => "modified-after-pre",
            LintCode::UselessPre => "useless-pre",
            LintCode::InsufficientWindow => "insufficient-window",
            LintCode::RedundantPre => "redundant-pre",
            LintCode::IrbPressure => "irb-pressure",
            LintCode::PersistOrdering => "persist-ordering",
            LintCode::GraphCycle => "graph-cycle",
            LintCode::GraphDuplicateEdge => "graph-duplicate-edge",
            LintCode::GraphRedundantEdge => "graph-redundant-edge",
            LintCode::GraphClassMismatch => "graph-class-mismatch",
        }
    }

    /// The severity of this code's findings: wasted-work and pressure
    /// findings warn, everything that indicates a guaranteed slowdown or a
    /// structural defect errors.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::RedundantPre | LintCode::IrbPressure | LintCode::GraphRedundantEdge => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl std::fmt::Display for LintCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is ([`crate::lint_program`] callers gate exit
/// codes on errors; warnings are advisory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: wasted work or pressure, not a guaranteed slowdown.
    Warning,
    /// A misuse or structural defect the paper's tooling would reject.
    Error,
}

impl Severity {
    /// `"warning"` or `"error"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding, anchored to an op index of the analyzed program (or to a
/// BMO stack for the structural graph lints).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub code: LintCode,
    /// Primary span: the op index the finding anchors to (the store for
    /// stale hints, the request for useless ones, the `clwb` for short
    /// windows; `0` for graph lints, which carry `stack` instead).
    pub at: usize,
    /// Related op index (e.g. the request behind a stale-hint store).
    pub other: Option<usize>,
    /// Target NVM line, when the finding concerns one.
    pub line: Option<u64>,
    /// The `pre_obj` involved, when known.
    pub obj: Option<u32>,
    /// `(estimated, required)` cycles for window findings.
    pub window: Option<(u64, u64)>,
    /// The BMO stack a structural finding belongs to (`id_list` form).
    pub stack: Option<String>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic with no optional context; builder-style setters fill
    /// the rest.
    pub fn new(code: LintCode, at: usize, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            at,
            other: None,
            line: None,
            obj: None,
            window: None,
            stack: None,
            message: message.into(),
        }
    }

    /// How serious the finding is: its code's [`LintCode::severity`].
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Sets the related op index.
    pub fn with_other(mut self, other: usize) -> Self {
        self.other = Some(other);
        self
    }

    /// Sets the target line.
    pub fn with_line(mut self, line: u64) -> Self {
        self.line = Some(line);
        self
    }

    /// Sets the `pre_obj`.
    pub fn with_obj(mut self, obj: u32) -> Self {
        self.obj = Some(obj);
        self
    }

    /// Sets the `(estimated, required)` window cycles.
    pub fn with_window(mut self, window: u64, required: u64) -> Self {
        self.window = Some((window, required));
        self
    }

    /// Sets the BMO stack label.
    pub fn with_stack(mut self, stack: impl Into<String>) -> Self {
        self.stack = Some(stack.into());
        self
    }

    /// Deterministic sort key: program order first, then code, then the
    /// structured context (total, so equal keys mean equal diagnostics).
    fn sort_key(&self) -> (usize, LintCode, Option<u64>, Option<usize>, &str) {
        (self.at, self.code, self.line, self.other, &self.message)
    }

    /// Appends the diagnostic as one JSON object with a fixed field order
    /// (`code`, `severity`, `at`, then the optional context fields, then
    /// `message`) — byte-deterministic for identical diagnostics.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"code\":");
        json::write_str(out, self.code.as_str());
        out.push_str(",\"severity\":");
        json::write_str(out, self.severity().as_str());
        out.push_str(&format!(",\"at\":{}", self.at));
        if let Some(other) = self.other {
            out.push_str(&format!(",\"other\":{other}"));
        }
        if let Some(line) = self.line {
            out.push_str(&format!(",\"line\":{line}"));
        }
        if let Some(obj) = self.obj {
            out.push_str(&format!(",\"obj\":{obj}"));
        }
        if let Some((window, required)) = self.window {
            out.push_str(&format!(",\"window\":{window},\"required\":{required}"));
        }
        if let Some(stack) = &self.stack {
            out.push_str(",\"stack\":");
            json::write_str(out, stack);
        }
        out.push_str(",\"message\":");
        json::write_str(out, &self.message);
        out.push('}');
    }
}

impl std::fmt::Display for Diagnostic {
    /// Plain text rendering: `error[useless-pre] @12: message`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] @{}: {}",
            self.severity().as_str(),
            self.code.as_str(),
            self.at,
            self.message
        )
    }
}

/// The result of linting one program (plus any structural graph findings
/// merged in by the CLI).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LintReport {
    /// All findings, sorted by [`LintReport::sort`].
    pub diagnostics: Vec<Diagnostic>,
    /// Pre-execution requests analyzed (line granularity).
    pub requests: usize,
    /// Requests consumed by a write with a full window.
    pub well_placed: usize,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Number of findings with the given code.
    pub fn count(&self, code: LintCode) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }

    /// Sorts diagnostics into the canonical (program-order) ordering.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// Renders the report as one deterministic JSON object. Diagnostics
    /// are rendered through a sorted view — stable-ordered by (span, code,
    /// context) even if the caller merged findings from several lint
    /// passes without re-sorting — so JSON diffs are deterministic.
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&Diagnostic> = self.diagnostics.iter().collect();
        sorted.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let mut out = String::with_capacity(256 + sorted.len() * 96);
        out.push_str(&format!(
            "{{\"requests\":{},\"well_placed\":{},\"errors\":{},\"warnings\":{},\"diagnostics\":[",
            self.requests,
            self.well_placed,
            self.errors(),
            self.warnings()
        ));
        for (i, d) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            d.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_defaults() {
        assert_eq!(LintCode::ModifiedAfterPre.severity(), Severity::Error);
        assert_eq!(LintCode::RedundantPre.severity(), Severity::Warning);
        assert_eq!(LintCode::GraphRedundantEdge.severity(), Severity::Warning);
    }

    #[test]
    fn json_is_valid_and_ordered() {
        let mut r = LintReport {
            diagnostics: vec![
                Diagnostic::new(LintCode::UselessPre, 9, "b").with_obj(1),
                Diagnostic::new(LintCode::InsufficientWindow, 4, "a")
                    .with_line(7)
                    .with_window(100, 2764),
            ],
            requests: 2,
            well_placed: 0,
        };
        r.sort();
        assert_eq!(r.diagnostics[0].at, 4);
        let text = r.to_json();
        let v = json::parse(&text).expect("valid JSON");
        assert_eq!(v.get("requests").and_then(|x| x.as_f64()), Some(2.0));
        let diags = v.get("diagnostics").and_then(|x| x.as_array()).unwrap();
        assert_eq!(diags.len(), 2);
        assert_eq!(
            diags[0].get("code").and_then(|c| c.as_str()),
            Some("insufficient-window")
        );
        assert_eq!(
            diags[0].get("required").and_then(|c| c.as_f64()),
            Some(2764.0)
        );
    }

    #[test]
    fn display_renders_code_and_span() {
        let d = Diagnostic::new(LintCode::IrbPressure, 3, "peak 70 > 64");
        let s = d.to_string();
        assert!(s.contains("warning[irb-pressure] @3"), "{s}");
    }

    #[test]
    fn counts_by_code_and_severity() {
        let r = LintReport {
            diagnostics: vec![
                Diagnostic::new(LintCode::UselessPre, 0, ""),
                Diagnostic::new(LintCode::RedundantPre, 1, ""),
            ],
            requests: 0,
            well_placed: 0,
        };
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.count(LintCode::UselessPre), 1);
        assert_eq!(r.count(LintCode::GraphCycle), 0);
    }
}
