//! The ratchet: pre-existing diagnostic debt for ratchetable rules,
//! recorded per (rule, file) in `simlint.ratchet` at the workspace root.
//! Counts may shrink (tighten the file with `--update-ratchet`) but a
//! commit can never grow them.
//!
//! File format: one `<rule> <file> <count>` entry per line, sorted, `#`
//! comments allowed.

use crate::diag::Diagnostic;
use crate::rules;
use std::collections::BTreeMap;

pub const RATCHET_FILE: &str = "simlint.ratchet";

/// (rule, file) → tolerated diagnostic count.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Ratchet {
    pub counts: BTreeMap<(String, String), u32>,
}

/// Outcome of comparing current debt against the ratchet.
#[derive(Debug, Default)]
pub struct RatchetDelta {
    /// Keys whose current count exceeds the tolerated count — failures.
    pub over: Vec<String>,
    /// Keys whose current count is below the tolerated count — the
    /// ratchet should be tightened (kept honest by the self-check test).
    pub under: Vec<String>,
}

impl Ratchet {
    pub fn parse(text: &str) -> Ratchet {
        let mut counts = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(rule), Some(file), Some(n)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let Ok(n) = n.parse::<u32>() else { continue };
            counts.insert((rule.to_string(), file.to_string()), n);
        }
        Ratchet { counts }
    }

    /// Serialize in the canonical sorted form. Fully-resolved entries
    /// (count 0) are dropped, so `--update-ratchet` never leaves stale
    /// zero-count lines behind once a file's debt is burned down.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# simlint ratchet: tolerated pre-existing diagnostics per (rule, file).\n\
             # Counts may only decrease; regenerate with `cargo run -p simlint -- --update-ratchet`.\n",
        );
        for ((rule, file), n) in &self.counts {
            if *n > 0 {
                out.push_str(&format!("{rule} {file} {n}\n"));
            }
        }
        out
    }

    /// Current debt per (rule, file) for ratchetable rules, counting
    /// only unsuppressed diagnostics.
    pub fn current(diags: &[Diagnostic]) -> Ratchet {
        let mut counts: BTreeMap<(String, String), u32> = BTreeMap::new();
        for d in diags {
            if d.suppressed {
                continue;
            }
            if rules::rule(d.rule).is_some_and(|r| r.ratchet) {
                *counts
                    .entry((d.rule.to_string(), d.file.clone()))
                    .or_default() += 1;
            }
        }
        Ratchet { counts }
    }

    /// Mark ratcheted diagnostics in place and report the delta. For each
    /// (rule, file) within budget, every diagnostic is absorbed; over
    /// budget, none are (the whole file's debt surfaces, which is what
    /// makes the developer either fix a site or justify it inline).
    pub fn apply(&self, diags: &mut [Diagnostic]) -> RatchetDelta {
        let current = Ratchet::current(diags);
        let mut delta = RatchetDelta::default();
        for (key, &cur) in &current.counts {
            let allowed = self.counts.get(key).copied().unwrap_or(0);
            if cur > allowed {
                delta
                    .over
                    .push(format!("{} {} {cur} > {allowed}", key.0, key.1));
            } else {
                if cur < allowed {
                    delta
                        .under
                        .push(format!("{} {} {cur} < {allowed}", key.0, key.1));
                }
                for d in diags.iter_mut() {
                    if !d.suppressed && d.rule == key.0 && d.file == key.1 {
                        d.ratcheted = true;
                    }
                }
            }
        }
        // Entries for files that no longer have any debt at all.
        for (key, &allowed) in &self.counts {
            if allowed > 0 && !current.counts.contains_key(key) {
                delta
                    .under
                    .push(format!("{} {} 0 < {allowed}", key.0, key.1));
            }
        }
        delta.over.sort();
        delta.under.sort();
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diagnostic;
    use crate::rules::PANIC_IN_LIB;

    fn d(file: &str) -> Diagnostic {
        Diagnostic::new(PANIC_IN_LIB, file, 1, "x".into())
    }

    #[test]
    fn parse_render_round_trip() {
        let r = Ratchet::parse("# c\npanic-in-lib a.rs 2\n\npanic-in-lib b.rs 1\n");
        assert_eq!(r.counts.len(), 2);
        let r2 = Ratchet::parse(&r.render());
        assert_eq!(r, r2);
    }

    #[test]
    fn render_drops_fully_resolved_entries() {
        let r = Ratchet::parse("panic-in-lib a.rs 0\npanic-in-lib b.rs 1\n");
        let rendered = r.render();
        assert!(
            !rendered.contains("a.rs"),
            "zero-count line must be dropped"
        );
        assert!(rendered.contains("panic-in-lib b.rs 1"));
    }

    #[test]
    fn within_budget_absorbs_over_budget_surfaces() {
        let ratchet = Ratchet::parse("panic-in-lib a.rs 2\n");
        let mut diags = vec![d("a.rs"), d("a.rs")];
        let delta = ratchet.apply(&mut diags);
        assert!(delta.over.is_empty());
        assert!(diags.iter().all(|x| x.ratcheted));

        let mut diags = vec![d("a.rs"), d("a.rs"), d("a.rs")];
        let delta = ratchet.apply(&mut diags);
        assert_eq!(delta.over.len(), 1);
        assert!(diags.iter().all(|x| !x.ratcheted));
    }

    #[test]
    fn shrinking_debt_reports_under() {
        let ratchet = Ratchet::parse("panic-in-lib a.rs 2\npanic-in-lib gone.rs 3\n");
        let mut diags = vec![d("a.rs")];
        let delta = ratchet.apply(&mut diags);
        assert_eq!(delta.under.len(), 2);
        assert!(delta.over.is_empty());
    }
}
