//! Span-tree profiling: per-kind self-time aggregation and the
//! collapsed-stack ("folded") exporter consumed by inferno /
//! `flamegraph.pl`.
//!
//! The input is a flat list of [`SpanRec`]s — one per closed span, as
//! rebuilt by `dynp-insight` from the `span` close events of a log. Its
//! report and its `fold` subcommand feed the same [`profile_spans`]
//! fold, so the two agree by construction.
//!
//! *Self time* is a span's own duration minus the summed durations of
//! its **direct** children (saturating at zero). Summing self time over
//! a stack path is what a flamegraph renders; the fold also checks the
//! parent ≥ Σ children invariant and counts violations instead of
//! silently clamping them away.
//!
//! Span ids are only unique within one cell (and one run), so records
//! are grouped by [`SpanRec::cell`] before the tree is rebuilt; spans
//! closed outside any cell form one shared free group (their ids come
//! from a process-global counter, so they never collide).

use crate::json::JsonValue;
use std::collections::BTreeMap;

/// One closed span, ready for tree reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// Campaign cell the span ran under; `None` for free spans.
    pub cell: Option<u64>,
    /// The span's id (deterministic inside a cell).
    pub span: u64,
    /// Enclosing span's id; `0` for a root.
    pub parent: u64,
    /// Span kind, e.g. `milp.search` or `exp.replay`.
    pub kind: String,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregate times of one span kind across a profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStat {
    /// Spans of this kind.
    pub count: u64,
    /// Summed wall-clock duration (includes time spent in children).
    pub total_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
}

/// The result of folding a set of [`SpanRec`]s.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Collapsed stacks: `"root;child;leaf"` → summed self time (ns).
    pub stacks: BTreeMap<String, u64>,
    /// Per-kind aggregate times.
    pub kinds: BTreeMap<String, KindStat>,
    /// Spans that had at least one child (parents whose invariant was
    /// checked).
    pub parents_checked: u64,
    /// Parents whose direct children's durations sum past their own.
    pub violations: u64,
    /// Spans whose non-zero parent was missing from the record set
    /// (dropped by a bounded sink, or an incomplete log); they are
    /// folded as stack roots rather than discarded.
    pub orphans: u64,
}

impl Profile {
    /// Folds `other` into `self` (stack and kind tables add up, the
    /// invariant counters accumulate). Used to combine per-run profiles
    /// whose deterministic span ids would collide in a single fold.
    pub fn merge(&mut self, other: &Profile) {
        for (stack, ns) in &other.stacks {
            *self.stacks.entry(stack.clone()).or_insert(0) += ns;
        }
        for (kind, stat) in &other.kinds {
            let slot = self.kinds.entry(kind.clone()).or_default();
            slot.count += stat.count;
            slot.total_ns += stat.total_ns;
            slot.self_ns += stat.self_ns;
        }
        self.parents_checked += other.parents_checked;
        self.violations += other.violations;
        self.orphans += other.orphans;
    }
}

/// Maximum stack depth folded into a path; deeper chains (only possible
/// with a cyclic or corrupt parent graph) are cut off at the top.
const MAX_STACK_DEPTH: usize = 128;

/// Rebuilds the span trees from `records` (grouped by cell) and folds
/// them into collapsed stacks, per-kind self times, and the parent ≥
/// Σ children reconciliation counters.
pub fn profile_spans(records: &[SpanRec]) -> Profile {
    let mut groups: BTreeMap<Option<u64>, Vec<&SpanRec>> = BTreeMap::new();
    for rec in records {
        groups.entry(rec.cell).or_default().push(rec);
    }
    let mut profile = Profile::default();
    for group in groups.values() {
        fold_group(group, &mut profile);
    }
    profile
}

fn fold_group(group: &[&SpanRec], profile: &mut Profile) {
    // Last close wins on a duplicated id (cannot happen in well-formed
    // logs; analyzer inputs are untrusted).
    let mut by_id: BTreeMap<u64, &SpanRec> = BTreeMap::new();
    for rec in group {
        by_id.insert(rec.span, rec);
    }
    let mut child_sums: BTreeMap<u64, u64> = BTreeMap::new();
    for rec in by_id.values() {
        if rec.parent != 0 {
            if by_id.contains_key(&rec.parent) {
                *child_sums.entry(rec.parent).or_insert(0) += rec.dur_ns;
            } else {
                profile.orphans += 1;
            }
        }
    }
    for (parent, sum) in &child_sums {
        profile.parents_checked += 1;
        if *sum > by_id[parent].dur_ns {
            profile.violations += 1;
        }
    }
    for rec in by_id.values() {
        let self_ns = rec
            .dur_ns
            .saturating_sub(child_sums.get(&rec.span).copied().unwrap_or(0));
        let stat = profile.kinds.entry(rec.kind.clone()).or_default();
        stat.count += 1;
        stat.total_ns += rec.dur_ns;
        stat.self_ns += self_ns;
        *profile.stacks.entry(stack_path(rec, &by_id)).or_insert(0) += self_ns;
    }
}

/// The span's ancestry as a `root;…;self` kind path. Walks up `parent`
/// links; a missing parent truncates the path there (the span becomes a
/// root of its own stack).
fn stack_path(rec: &SpanRec, by_id: &BTreeMap<u64, &SpanRec>) -> String {
    let mut kinds: Vec<&str> = vec![&rec.kind];
    let mut cursor = rec.parent;
    while cursor != 0 && kinds.len() < MAX_STACK_DEPTH {
        let Some(parent) = by_id.get(&cursor) else {
            break;
        };
        kinds.push(&parent.kind);
        cursor = parent.parent;
    }
    kinds.reverse();
    kinds.join(";")
}

/// Renders a profile's collapsed stacks in the format `flamegraph.pl`
/// and inferno consume: one `stack;path value` line per stack, sorted,
/// values in nanoseconds of self time.
pub fn render_folded(profile: &Profile) -> String {
    let mut out = String::with_capacity(profile.stacks.len() * 48);
    for (stack, ns) in &profile.stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Serializes per-kind stats for reports: `kind → {count, total_ns,
/// self_ns}`, sorted by kind.
pub fn kinds_json(profile: &Profile) -> JsonValue {
    let mut out = JsonValue::object();
    for (kind, stat) in &profile.kinds {
        out.set(
            kind,
            JsonValue::object()
                .with("count", stat.count)
                .with("total_ns", stat.total_ns)
                .with("self_ns", stat.self_ns),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cell: Option<u64>, span: u64, parent: u64, kind: &str, dur_ns: u64) -> SpanRec {
        SpanRec {
            cell,
            span,
            parent,
            kind: kind.to_string(),
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root(100) -> a(60) -> b(25): root self 40, a self 35, b self 25.
        let records = vec![
            rec(Some(0), 1, 0, "root", 100),
            rec(Some(0), 2, 1, "a", 60),
            rec(Some(0), 3, 2, "b", 25),
        ];
        let p = profile_spans(&records);
        assert_eq!(p.kinds["root"].self_ns, 40);
        assert_eq!(p.kinds["a"].self_ns, 35);
        assert_eq!(p.kinds["b"].self_ns, 25);
        assert_eq!(p.kinds["a"].total_ns, 60);
        assert_eq!(p.parents_checked, 2);
        assert_eq!(p.violations, 0);
        assert_eq!(p.orphans, 0);
        // Stacks carry the full ancestry.
        assert_eq!(p.stacks["root"], 40);
        assert_eq!(p.stacks["root;a"], 35);
        assert_eq!(p.stacks["root;a;b"], 25);
        // Total self time equals the root's duration.
        assert_eq!(p.stacks.values().sum::<u64>(), 100);
    }

    #[test]
    fn violations_are_counted_not_clamped_away() {
        let records = vec![
            rec(Some(0), 1, 0, "root", 10),
            rec(Some(0), 2, 1, "a", 8),
            rec(Some(0), 3, 1, "b", 7),
        ];
        let p = profile_spans(&records);
        assert_eq!(p.violations, 1);
        // Self time saturates instead of going negative.
        assert_eq!(p.kinds["root"].self_ns, 0);
    }

    #[test]
    fn orphans_become_stack_roots() {
        let records = vec![rec(Some(0), 5, 99, "lost", 3)];
        let p = profile_spans(&records);
        assert_eq!(p.orphans, 1);
        assert_eq!(p.stacks["lost"], 3);
    }

    #[test]
    fn cells_are_disjoint_trees() {
        // Same span ids in two cells must not cross-link.
        let records = vec![
            rec(Some(0), 1, 0, "root", 10),
            rec(Some(1), 1, 0, "root", 20),
            rec(None, 1 << 48, 0, "free", 5),
        ];
        let p = profile_spans(&records);
        assert_eq!(p.kinds["root"].count, 2);
        assert_eq!(p.kinds["root"].total_ns, 30);
        assert_eq!(p.stacks["free"], 5);
    }

    #[test]
    fn folded_renders_one_sorted_line_per_stack() {
        let records = vec![
            rec(Some(0), 1, 0, "root", 100),
            rec(Some(0), 2, 1, "a", 60),
        ];
        let p = profile_spans(&records);
        assert_eq!(render_folded(&p), "root 40\nroot;a 60\n");
    }

    #[test]
    fn merge_accumulates_everything() {
        let a = profile_spans(&[rec(Some(0), 1, 0, "root", 10)]);
        let b = profile_spans(&[
            rec(Some(0), 1, 0, "root", 30),
            rec(Some(0), 2, 99, "lost", 1),
        ]);
        let mut merged = Profile::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.kinds["root"].count, 2);
        assert_eq!(merged.kinds["root"].total_ns, 40);
        assert_eq!(merged.stacks["root"], 40);
        assert_eq!(merged.orphans, 1);
    }

    #[test]
    fn kinds_json_is_sorted_and_strict() {
        let p = profile_spans(&[
            rec(Some(0), 1, 0, "b.kind", 10),
            rec(Some(0), 2, 1, "a.kind", 4),
        ]);
        let json = kinds_json(&p).to_json();
        crate::json::validate(&json).unwrap();
        assert!(json.find("a.kind").unwrap() < json.find("b.kind").unwrap());
    }
}
