//! Table 6: the benchmark suite and workloads.
//!
//! Rendered from the live scenario objects so the table always reflects
//! what the code actually runs.

use smartconf_harness::TextTable;

use crate::figure5::all_scenarios;

/// Renders the suite table.
pub fn render() -> String {
    let mut table = TextTable::new(vec![
        "issue",
        "configuration",
        "description",
        "buggy default",
        "patch default",
    ]);
    for s in all_scenarios() {
        let conf = s.perfconf();
        table.row(vec![
            conf.id.to_string(),
            conf.config_name.to_string(),
            conf.description.to_string(),
            fmt_setting(conf.buggy_default),
            fmt_setting(conf.patch_default),
        ]);
    }
    format!(
        "Table 6: benchmark suite (see Table 6 of the paper; workloads in DESIGN.md)\n\n{table}"
    )
}

fn fmt_setting(v: Option<f64>) -> String {
    v.map(|x| format!("{x}")).unwrap_or_else(|| "-".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_six_issues() {
        let t = render();
        for id in crate::ISSUE_IDS {
            assert!(t.contains(id), "missing {id}:\n{t}");
        }
        assert!(t.contains("memtable_total_space_in_mb"));
        assert!(t.contains("local.dir.minspacestart"));
    }
}
