//! The expected verdict table: per test, the path counts of both agents
//! and the crosscheck/distillation outcome. It is recorded with the
//! fresh (non-incremental) solver by `perfbench --record-verdicts`, and
//! every benchmarked run must reproduce it exactly.

use soft::TestOutcome;

/// The committed table (recorded with the fresh solver).
pub const EXPECTED: &str = include_str!("../verdicts.tsv");

/// Column names, in file order.
pub const COLUMNS: [&str; 7] = [
    "test",
    "paths_a",
    "paths_b",
    "inconsistencies",
    "unverified",
    "confirmed",
    "clusters",
];

/// One row of the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    pub test: String,
    pub paths_a: usize,
    pub paths_b: usize,
    pub inconsistencies: usize,
    pub unverified: usize,
    pub confirmed: usize,
    pub clusters: usize,
}

impl Row {
    pub fn of(o: &TestOutcome) -> Row {
        Row {
            test: o.test.clone(),
            paths_a: o.paths_a,
            paths_b: o.paths_b,
            inconsistencies: o.inconsistencies,
            unverified: o.unverified,
            confirmed: o.confirmed,
            clusters: o.clusters,
        }
    }

    fn counts(&self) -> [usize; 6] {
        [
            self.paths_a,
            self.paths_b,
            self.inconsistencies,
            self.unverified,
            self.confirmed,
            self.clusters,
        ]
    }

    pub fn to_line(&self) -> String {
        let counts: Vec<String> = self.counts().iter().map(usize::to_string).collect();
        format!("{}\t{}", self.test, counts.join("\t"))
    }
}

/// Render rows as the table file (header first).
pub fn render(rows: &[Row]) -> String {
    let mut out = COLUMNS.join("\t");
    out.push('\n');
    for r in rows {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Parse the table file; `#` lines and blank lines are ignored.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty verdict table")?
        .split('\t')
        .collect();
    if header != COLUMNS {
        return Err(format!("verdict table header {header:?} != {COLUMNS:?}"));
    }
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split('\t').collect();
            if cells.len() != COLUMNS.len() {
                return Err(format!(
                    "verdict table row has {} cells: {line}",
                    cells.len()
                ));
            }
            let n = |k: usize| -> Result<usize, String> {
                cells[k]
                    .parse()
                    .map_err(|_| format!("verdict table: bad {} in '{line}'", COLUMNS[k]))
            };
            Ok(Row {
                test: cells[0].to_string(),
                paths_a: n(1)?,
                paths_b: n(2)?,
                inconsistencies: n(3)?,
                unverified: n(4)?,
                confirmed: n(5)?,
                clusters: n(6)?,
            })
        })
        .collect()
}

/// Check an observed row against the table: the test must be listed and
/// every count must match.
pub fn check(table: &[Row], got: &Row) -> Result<(), String> {
    let want = table
        .iter()
        .find(|r| r.test == got.test)
        .ok_or_else(|| format!("{}: not in the verdict table", got.test))?;
    let diffs: Vec<String> = COLUMNS[1..]
        .iter()
        .zip(want.counts().iter().zip(got.counts()))
        .filter(|(_, (w, g))| *w != g)
        .map(|(col, (w, g))| format!("{col} expected {w}, got {g}"))
        .collect();
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(format!("{}: {}", got.test, diffs.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(test: &str, inconsistencies: usize) -> Row {
        Row {
            test: test.to_string(),
            paths_a: 161,
            paths_b: 212,
            inconsistencies,
            unverified: 0,
            confirmed: inconsistencies,
            clusters: 2,
        }
    }

    #[test]
    fn table_round_trips() {
        let rows = vec![row("packet_out", 92), row("concrete", 0)];
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
    }

    #[test]
    fn committed_table_parses_and_lists_every_workload_test() {
        let table = parse(EXPECTED).expect("committed table parses");
        for t in [
            "packet_out",
            "stats_request",
            "set_config",
            "cs_flow_mods",
            "concrete",
            "short_symb",
            "queue_config",
            "timeout_flow_mod",
            "eth_flow_mod",
            "fig4_two",
        ] {
            assert!(table.iter().any(|r| r.test == t), "{t} missing");
        }
        assert!(table.iter().all(|r| r.unverified == 0));
    }

    #[test]
    fn mismatch_is_rejected_with_the_differing_column() {
        let table = vec![row("packet_out", 92)];
        assert!(check(&table, &row("packet_out", 92)).is_ok());
        let err = check(&table, &row("packet_out", 91)).unwrap_err();
        assert!(err.contains("inconsistencies expected 92, got 91"), "{err}");
        assert!(err.contains("confirmed expected 92, got 91"), "{err}");
        let err = check(&table, &row("flow_mod", 92)).unwrap_err();
        assert!(err.contains("not in the verdict table"), "{err}");
    }

    #[test]
    fn malformed_tables_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("test\tpaths_a\n").is_err());
        let bad = format!("{}\npacket_out\t1\t2\n", COLUMNS.join("\t"));
        assert!(parse(&bad).is_err());
    }
}
