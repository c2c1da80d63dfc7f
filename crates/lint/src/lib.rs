#![warn(missing_docs)]

//! Verilog static analysis for the CirFix repair pipeline.
//!
//! The crate has three layers:
//!
//! * **Structure** — [`ModuleStructure`] summarizes one module:
//!   resolved parameters and signal widths, per-process clocking
//!   classification and control-flow graph ([`Cfg`]), assignment
//!   sites, a driver map, and def/use chains.
//! * **Passes** — [`all_passes`] enumerates the registered checks,
//!   each a pure function from a structure to [`Diagnostic`]s. The
//!   initial set targets the paper's Table 2–3 defect classes:
//!   inferred latches and incomplete cases, blocking/non-blocking
//!   misuse, multiple drivers, dead code, x-prone comparisons, and
//!   assignment width mismatches.
//! * **Entry points** — [`lint_module`] / [`lint_file`] /
//!   [`lint_modules`] run everything, and [`diagnostic_json`] writes a
//!   finding as the `lint` CLI's `--json` line.

pub mod cfg;
pub mod diagnostic;
pub mod passes;
pub mod structure;

use cirfix_ast::{Module, SourceFile};

pub use cfg::{Block, BlockId, Cfg};
pub use diagnostic::{diagnostic_json, Diagnostic, Severity};
pub use passes::{all_passes, Pass};
pub use structure::{
    AssignSite, Clocking, DriverOrigin, DriverSite, ModuleStructure, ProcessInfo, SignalInfo,
};

/// Runs every registered pass over one module, sorted by node id.
pub fn lint_module(module: &Module) -> Vec<Diagnostic> {
    let s = ModuleStructure::new(module);
    let mut out = Vec::new();
    for pass in all_passes() {
        out.extend((pass.run)(&s));
    }
    out.sort_by(|a, b| (a.node_id, a.code).cmp(&(b.node_id, b.code)));
    out
}

/// Lints every module of a source file; returns `(module name,
/// diagnostic)` pairs in module order.
pub fn lint_file(file: &SourceFile) -> Vec<(String, Diagnostic)> {
    let mut out = Vec::new();
    for m in &file.modules {
        for d in lint_module(m) {
            out.push((m.name.clone(), d));
        }
    }
    out
}

/// Lints only the named modules (e.g. the design under repair,
/// skipping the testbench).
pub fn lint_modules(file: &SourceFile, names: &[String]) -> Vec<(String, Diagnostic)> {
    let mut out = Vec::new();
    for m in file.modules.iter().filter(|m| names.contains(&m.name)) {
        for d in lint_module(m) {
            out.push((m.name.clone(), d));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_six_passes_with_unique_codes() {
        let passes = all_passes();
        assert_eq!(passes.len(), 6);
        let mut codes: Vec<_> = passes.iter().flat_map(|p| p.codes.iter()).collect();
        codes.sort();
        let n = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate diagnostic code registered");
    }

    #[test]
    fn clean_design_produces_no_errors() {
        let src = "
            module counter(clk, rst, q);
                input clk, rst;
                output reg [3:0] q;
                always @(posedge clk) begin
                    if (rst)
                        q <= 4'd0;
                    else
                        q <= q + 4'd1;
                end
            endmodule
        ";
        let file = cirfix_parser::parse(src).expect("parse");
        let diags = lint_file(&file);
        assert!(
            diags.iter().all(|(_, d)| d.severity != Severity::Error),
            "unexpected errors: {diags:?}"
        );
    }
}
