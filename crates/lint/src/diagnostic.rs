//! The diagnostic model shared by every lint pass.

use cirfix_ast::NodeId;
use cirfix_telemetry::JsonValue;

/// How bad a finding is.
///
/// [`Severity::Error`] findings mark definite defects (the defect
/// fuzzer discards mutants that add any); warnings are advisory. Both
/// surface in the `lint` CLI's text and JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but potentially intentional.
    Warning,
    /// Almost certainly a defect (or unsynthesizable construct).
    Error,
}

impl Severity {
    /// Lower-case name, as written to the JSON stream.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One lint finding, anchored to an AST node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable kebab-case code, e.g. `"multiple-drivers"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// The AST node the finding points at.
    pub node_id: NodeId,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: &'static str, node_id: NodeId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            node_id,
            message: message.into(),
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: &'static str, node_id: NodeId, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            node_id,
            message: message.into(),
        }
    }

    /// Human-readable one-line rendering, e.g.
    /// `counter: error[multiple-drivers] @node 17: ...`.
    pub fn render(&self, module: &str) -> String {
        format!(
            "{}: {}[{}] @node {}: {}",
            module,
            self.severity.as_str(),
            self.code,
            self.node_id,
            self.message
        )
    }
}

/// One finding as the single-line JSON object `cirfix lint --json`
/// prints: `{"type":"lint","module":..,"code":..,"severity":..,
/// "node_id":..,"message":..}`.
pub fn diagnostic_json(module: &str, diag: &Diagnostic) -> String {
    JsonValue::obj(vec![
        ("type", JsonValue::Str("lint".into())),
        ("module", JsonValue::Str(module.into())),
        ("code", JsonValue::Str(diag.code.into())),
        ("severity", JsonValue::Str(diag.severity.as_str().into())),
        ("node_id", JsonValue::Uint(u64::from(diag.node_id))),
        ("message", JsonValue::Str(diag.message.clone())),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_telemetry::validate_json_line;

    #[test]
    fn render_and_json_agree_on_fields() {
        let d = Diagnostic::error("multiple-drivers", 17, "`q` is driven from 2 places");
        let line = d.render("counter");
        assert_eq!(
            line,
            "counter: error[multiple-drivers] @node 17: `q` is driven from 2 places"
        );
        let json = diagnostic_json("counter", &d);
        validate_json_line(&json).expect("valid JSON line");
        assert!(json.contains("\"code\":\"multiple-drivers\""));
        assert!(json.contains("\"severity\":\"error\""));
        assert!(json.contains("\"node_id\":17"));
    }

    #[test]
    fn severity_orders_error_above_warning() {
        assert!(Severity::Error > Severity::Warning);
    }
}
