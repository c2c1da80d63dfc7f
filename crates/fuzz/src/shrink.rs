//! Finding shrinker: delta-debugging over source lines, followed by a
//! printer/parser round-trip that canonicalizes whatever survives.
//!
//! The predicate is abstract (`&str → bool`, "does this reduced source
//! still trigger the original finding class"), so the same shrinker
//! serves panics and hangs alike — and is testable
//! with synthetic predicates that never touch the simulator.

use cirfix_ast::print::source_to_string;

/// Shrinks `source` to a (locally) minimal text for which `interesting`
/// still holds. `interesting(source)` must be true on entry; the
/// result is guaranteed interesting and no larger than the input.
///
/// Three passes: classic ddmin over lines, a one-line-at-a-time
/// elimination loop to a fixpoint, and — when the reduced text still
/// parses — a reprint through the canonical printer (kept only if the
/// canonical form is itself interesting and not larger).
pub fn shrink(source: &str, interesting: &dyn Fn(&str) -> bool) -> String {
    debug_assert!(interesting(source), "shrink precondition");
    let lines: Vec<&str> = source.lines().collect();
    let kept = ddmin(&lines, interesting);
    let kept = eliminate_single_lines(kept, interesting);
    let mut best = kept.join("\n");
    if let Ok(file) = cirfix_parser::parse(&best) {
        let printed = source_to_string(&file);
        if printed.len() <= best.len() && interesting(&printed) {
            best = printed;
        }
    }
    best
}

/// Zeller's ddmin over a line vector: try dropping complement chunks
/// at increasing granularity until no chunk can be removed.
fn ddmin<'a>(lines: &[&'a str], interesting: &dyn Fn(&str) -> bool) -> Vec<&'a str> {
    let mut current: Vec<&str> = lines.to_vec();
    let mut chunks = 2usize;
    while current.len() >= 2 {
        let chunk_size = current.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk_size).min(current.len());
            let mut candidate: Vec<&str> = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && interesting(&candidate.join("\n")) {
                current = candidate;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                // Restart the sweep on the reduced input.
                start = 0;
                continue;
            }
            start = end;
        }
        if !reduced {
            if chunk_size <= 1 {
                break;
            }
            chunks = (chunks * 2).min(current.len());
        }
    }
    current
}

/// Final polish: drop lines one at a time until a whole sweep removes
/// nothing.
fn eliminate_single_lines<'a>(
    mut current: Vec<&'a str>,
    interesting: &dyn Fn(&str) -> bool,
) -> Vec<&'a str> {
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < current.len() && current.len() > 1 {
            let mut candidate = current.clone();
            candidate.remove(i);
            if interesting(&candidate.join("\n")) {
                current = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_single_triggering_line() {
        let source = "line a\nline b\nTRIGGER\nline c\nline d\nline e\nline f\nline g";
        let shrunk = shrink(source, &|s: &str| s.contains("TRIGGER"));
        assert_eq!(shrunk, "TRIGGER");
    }

    #[test]
    fn keeps_a_pair_of_jointly_required_lines() {
        let source = "x\nALPHA\ny\nz\nBETA\nw";
        let shrunk = shrink(source, &|s: &str| s.contains("ALPHA") && s.contains("BETA"));
        assert_eq!(shrunk, "ALPHA\nBETA");
    }

    #[test]
    fn result_is_always_interesting_and_no_larger() {
        // A mildly adversarial predicate: interesting iff the text has
        // an odd number of `#` lines.
        let pred = |s: &str| s.lines().filter(|l| l.starts_with('#')).count() % 2 == 1;
        let source = "#1\na\n#2\nb\n#3\nc";
        assert!(pred(source));
        let shrunk = shrink(source, &pred);
        assert!(pred(&shrunk), "postcondition: still interesting");
        assert!(shrunk.len() <= source.len());
    }

    #[test]
    fn parseable_results_are_canonicalized() {
        let source = "junk before\nmodule m; wire w; endmodule";
        let shrunk = shrink(source, &|s: &str| s.contains("module m"));
        assert!(
            cirfix_parser::parse(&shrunk).is_ok(),
            "shrunk to valid Verilog: {shrunk}"
        );
    }
}
