//! Reads the Figure 10 cycle counts out of the committed golden snapshot
//! (`crates/bench/tests/golden/fig10.json`), so the benchmark checks its
//! seed-`0xC0DE` cells against the same bytes the test suite pins.

use machsuite::Benchmark;

/// The seed every figure generator runs with.
pub const FIGURE_SEED: u64 = 0xC0DE;

/// Cycles per benchmark, in `SystemVariant::ALL` order.
pub type Fig10 = Vec<(Benchmark, [u64; 5])>;

/// Parses the golden file's text.
pub fn parse(text: &str) -> Result<Fig10, String> {
    let report = report_string(text).ok_or("no \"report\" string in the golden")?;
    let mut rows = Vec::new();
    for line in report.lines() {
        let mut words = line.split_whitespace();
        let Some(bench) = words.next().and_then(|w| w.parse::<Benchmark>().ok()) else {
            continue;
        };
        let mut cycles = [0u64; 5];
        for c in &mut cycles {
            *c = words
                .next()
                .and_then(|w| w.parse().ok())
                .ok_or_else(|| format!("malformed golden row: {line:?}"))?;
        }
        rows.push((bench, cycles));
    }
    if rows.len() != Benchmark::ALL.len() {
        return Err(format!("golden has {} rows, want 19", rows.len()));
    }
    Ok(rows)
}

/// The unescaped value of the top-level `"report"` key.
fn report_string(text: &str) -> Option<String> {
    let start = text.find("\"report\":\"")? + "\"report\":\"".len();
    let mut out = String::new();
    let mut chars = text[start..].chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_text() -> String {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/bench/tests/golden/fig10.json"
        );
        std::fs::read_to_string(path).unwrap()
    }

    #[test]
    fn the_committed_golden_parses_to_95_cells() {
        let rows = parse(&golden_text()).unwrap();
        assert_eq!(rows.len() * 5, 95);
        assert_eq!(rows[0].0, Benchmark::Aes);
        assert_eq!(rows[0].1, [1_613_190, 1_645_504, 16_951, 16_951, 17_102]);
    }

    #[test]
    fn a_truncated_golden_is_refused() {
        let text = golden_text();
        let cut = text.find("gemm_blocked").unwrap();
        assert!(parse(&text[..cut]).is_err());
    }
}
