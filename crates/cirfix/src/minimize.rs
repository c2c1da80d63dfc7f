//! Repair minimization by delta debugging (§3.7).
//!
//! During the search CirFix accumulates edits that may not contribute to
//! the repair. Minimization computes a *one-minimal* subset of the edit
//! list from which no single element can be dropped without losing
//! plausibility, using the ddmin algorithm in polynomial time.

use crate::patch::{Edit, Patch};

/// Minimizes `patch` with respect to `is_plausible` (which must hold for
/// the input patch). Returns a one-minimal patch: removing any single
/// remaining edit breaks plausibility.
///
/// `is_plausible` is typically "apply + simulate + fitness == 1.0"; the
/// number of invocations is `O(n²)` in the worst case.
pub fn minimize(patch: &Patch, mut is_plausible: impl FnMut(&Patch) -> bool) -> Patch {
    let mut current: Vec<Edit> = patch.edits.clone();
    if current.len() <= 1 {
        return patch.clone();
    }
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            // Try removing current[start..end].
            let candidate: Vec<Edit> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if !candidate.is_empty() || patch_is_empty_ok(&mut is_plausible) {
                let p = Patch {
                    edits: candidate.clone(),
                };
                if is_plausible(&p) {
                    current = candidate;
                    n = n.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
            }
            start = end;
        }
        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    // Final one-minimality pass: drop single edits while possible.
    let mut i = 0;
    while current.len() > 1 && i < current.len() {
        let mut candidate = current.clone();
        candidate.remove(i);
        let p = Patch {
            edits: candidate.clone(),
        };
        if is_plausible(&p) {
            current = candidate;
            i = 0;
        } else {
            i += 1;
        }
    }
    Patch { edits: current }
}

fn patch_is_empty_ok(is_plausible: &mut impl FnMut(&Patch) -> bool) -> bool {
    is_plausible(&Patch::empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit(i: u32) -> Edit {
        Edit::DeleteStmt { target: i }
    }

    #[test]
    fn drops_irrelevant_edits() {
        // Plausible iff edits contain {2, 5}.
        let full = Patch {
            edits: (1..=6).map(edit).collect(),
        };
        let needed = [edit(2), edit(5)];
        let min = minimize(&full, |p| needed.iter().all(|e| p.edits.contains(e)));
        assert_eq!(min.edits, needed.to_vec());
    }

    #[test]
    fn single_required_edit_survives() {
        let full = Patch {
            edits: vec![edit(1), edit(2), edit(3)],
        };
        let min = minimize(&full, |p| p.edits.contains(&edit(3)));
        assert_eq!(min.edits, vec![edit(3)]);
    }

    #[test]
    fn fully_required_patch_is_unchanged() {
        let full = Patch {
            edits: vec![edit(1), edit(2)],
        };
        let min = minimize(&full, |p| p.edits.len() == 2);
        assert_eq!(min.edits.len(), 2);
    }

    #[test]
    fn single_edit_patch_returns_immediately() {
        let full = Patch {
            edits: vec![edit(9)],
        };
        let mut calls = 0;
        let min = minimize(&full, |_| {
            calls += 1;
            true
        });
        assert_eq!(min.edits.len(), 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn result_is_one_minimal() {
        // Plausible iff at least 2 of the first 4 edits present.
        let full = Patch {
            edits: (1..=8).map(edit).collect(),
        };
        let pred = |p: &Patch| {
            p.edits
                .iter()
                .filter(|e| matches!(e, Edit::DeleteStmt { target } if *target <= 4))
                .count()
                >= 2
        };
        let min = minimize(&full, pred);
        assert!(pred(&min));
        // Dropping any single edit must break plausibility.
        for i in 0..min.edits.len() {
            let mut fewer = min.edits.clone();
            fewer.remove(i);
            assert!(!pred(&Patch { edits: fewer }), "not one-minimal");
        }
    }
}
