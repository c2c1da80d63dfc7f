//! Human-readable descriptions of repair patches.
//!
//! CirFix repairs are "shown to human developers for validation before
//! the design is ultimately synthesized" (§3). This module renders a
//! patch as an edit-by-edit narrative against the design it applies to,
//! quoting the affected source.

use cirfix_ast::{print, SourceFile};

use crate::patch::{
    apply_patch, find_expr_anywhere, find_stmt_anywhere, Edit, Patch, SensTemplate,
};

/// Renders one edit as a single-line description against the design
/// state it applies to.
pub fn describe_edit(file: &SourceFile, design_modules: &[String], edit: &Edit) -> String {
    let stmt_text = |id| {
        find_stmt_anywhere(file, design_modules, id)
            .map(|s| first_line(&print::stmt_to_string(&s)))
            .unwrap_or_else(|| format!("<stale node {id}>"))
    };
    let expr_text = |id| {
        find_expr_anywhere(file, design_modules, id)
            .map(|e| print::expr_to_string(&e))
            .unwrap_or_else(|| format!("<stale node {id}>"))
    };
    match edit {
        Edit::ReplaceStmt { target, donor } => format!(
            "replace statement `{}` with a copy of `{}`",
            stmt_text(*target),
            stmt_text(*donor)
        ),
        Edit::ReplaceExpr { target, donor } => format!(
            "replace expression `{}` with a copy of `{}`",
            expr_text(*target),
            expr_text(*donor)
        ),
        Edit::InsertStmt { donor, after } => format!(
            "insert a copy of `{}` after `{}`",
            stmt_text(*donor),
            stmt_text(*after)
        ),
        Edit::DeleteStmt { target } => format!("delete statement `{}`", stmt_text(*target)),
        Edit::NegateCond { target } => {
            format!("negate the condition of `{}`", stmt_text(*target))
        }
        Edit::SetSensitivity {
            control,
            kind,
            signal,
        } => {
            let sens = match (kind, signal) {
                (SensTemplate::AnyChange, _) => "@*".to_string(),
                (SensTemplate::Posedge, Some(s)) => format!("@(posedge {s})"),
                (SensTemplate::Negedge, Some(s)) => format!("@(negedge {s})"),
                (SensTemplate::Level, Some(s)) => format!("@({s})"),
                _ => "@(?)".to_string(),
            };
            format!(
                "rewrite the sensitivity of `{}` to {sens}",
                first_line(&stmt_text(*control))
            )
        }
        Edit::ReplaceSensitivity { target, donor } => format!(
            "copy the sensitivity list of `{}` onto `{}`",
            first_line(&stmt_text(*donor)),
            first_line(&stmt_text(*target))
        ),
        Edit::BlockingToNonBlocking { target } => {
            format!("make assignment non-blocking: `{}`", stmt_text(*target))
        }
        Edit::NonBlockingToBlocking { target } => {
            format!("make assignment blocking: `{}`", stmt_text(*target))
        }
        Edit::IncrementExpr { target } => {
            format!("increment `{}` by 1", expr_text(*target))
        }
        Edit::DecrementExpr { target } => {
            format!("decrement `{}` by 1", expr_text(*target))
        }
    }
}

/// Renders a whole patch as a numbered edit narrative. Edits are
/// described against the progressively patched design, exactly as they
/// apply.
pub fn describe_patch(original: &SourceFile, design_modules: &[String], patch: &Patch) -> String {
    let mut out = String::new();
    let mut current = original.clone();
    for (i, edit) in patch.edits.iter().enumerate() {
        out.push_str(&format!(
            "{}. {}\n",
            i + 1,
            describe_edit(&current, design_modules, edit)
        ));
        let step = Patch::single(edit.clone());
        let (next, _) = apply_patch(&current, design_modules, &step);
        current = next;
    }
    if patch.is_empty() {
        out.push_str("(empty patch — the original design)\n");
    }
    out
}

/// A line-level diff between the original and repaired design modules,
/// in unified-ish format (`-` removed, `+` added).
pub fn diff_designs(
    original: &SourceFile,
    repaired: &SourceFile,
    design_modules: &[String],
) -> String {
    let render = |f: &SourceFile| {
        f.modules
            .iter()
            .filter(|m| design_modules.contains(&m.name))
            .map(|m| print::module_to_string(m))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let old = render(original);
    let new = render(repaired);
    let old_lines: Vec<&str> = old.lines().collect();
    let new_lines: Vec<&str> = new.lines().collect();
    // Longest-common-subsequence diff over lines.
    let n = old_lines.len();
    let m = new_lines.len();
    let mut lcs = vec![vec![0usize; m + 1]; n + 1];
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[i][j] = if old_lines[i] == new_lines[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let mut out = String::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if old_lines[i] == new_lines[j] {
            i += 1;
            j += 1;
        } else if lcs[i + 1][j] >= lcs[i][j + 1] {
            out.push_str(&format!("- {}\n", old_lines[i]));
            i += 1;
        } else {
            out.push_str(&format!("+ {}\n", new_lines[j]));
            j += 1;
        }
    }
    for line in &old_lines[i..] {
        out.push_str(&format!("- {line}\n"));
    }
    for line in &new_lines[j..] {
        out.push_str(&format!("+ {line}\n"));
    }
    out
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_ast::{visit, Stmt};
    use cirfix_parser::parse;

    const SRC: &str = r#"
        module m (c, q);
            input c;
            output reg [3:0] q;
            always @(posedge c)
            begin
                if (c) begin
                    q <= q + 4'd1;
                end
            end
        endmodule
    "#;

    fn stmt_id(file: &SourceFile, pred: impl Fn(&Stmt) -> bool) -> u32 {
        visit::stmts_of_module(file.module("m").unwrap())
            .into_iter()
            .find(|s| pred(s))
            .map(Stmt::id)
            .expect("found")
    }

    #[test]
    fn describes_each_edit_kind_with_source() {
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        let iff = stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let nba = stmt_id(&file, |s| matches!(s, Stmt::NonBlocking { .. }));
        let text = describe_edit(&file, &mods, &Edit::NegateCond { target: iff });
        assert!(text.contains("negate"), "{text}");
        assert!(text.contains("if (c)"), "{text}");
        let text = describe_edit(&file, &mods, &Edit::NonBlockingToBlocking { target: nba });
        assert!(text.contains("q <= q + 4'd1"), "{text}");
        let text = describe_edit(&file, &mods, &Edit::DeleteStmt { target: 9999 });
        assert!(text.contains("stale"), "{text}");
    }

    #[test]
    fn patch_narrative_numbers_edits() {
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        let nba = stmt_id(&file, |s| matches!(s, Stmt::NonBlocking { .. }));
        let patch = Patch {
            edits: vec![
                Edit::NonBlockingToBlocking { target: nba },
                Edit::DeleteStmt { target: nba },
            ],
        };
        let narrative = describe_patch(&file, &mods, &patch);
        assert!(narrative.starts_with("1. make assignment blocking"));
        // The second edit is described against the patched design, where
        // the assignment is now blocking.
        assert!(narrative.contains("2. delete statement `q = q + 4'd1"));
        assert!(describe_patch(&file, &mods, &Patch::empty()).contains("empty patch"));
    }

    #[test]
    fn diff_shows_only_changed_lines() {
        let file = parse(SRC).unwrap();
        let mods = vec!["m".to_string()];
        let iff = stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let (repaired, _) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::NegateCond { target: iff }),
        );
        let diff = diff_designs(&file, &repaired, &mods);
        assert!(diff.contains("- "), "{diff}");
        assert!(diff.contains("+ "), "{diff}");
        assert!(diff.contains("!c") || diff.contains("!(c)"), "{diff}");
        // Unchanged lines are omitted.
        assert!(!diff.contains("module m"), "{diff}");
        // Identical inputs produce an empty diff.
        assert!(diff_designs(&file, &file, &mods).is_empty());
    }
}
