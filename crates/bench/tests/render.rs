//! Pins the rendered text of the results that need no simulation (Table 3,
//! Figs 3, 15 and 16 with Table 1, Appendix A.2). Fig 16's Monte-Carlo
//! columns are seeded, so the whole text is deterministic. Regenerate with
//! `RESCQ_BLESS=1 cargo test -p rescq-bench --test render`.

use rescq_bench::experiments::{render, ExperimentScale};
use std::path::Path;

#[test]
fn cheap_results_match_golden() {
    let scale = ExperimentScale::reduced();
    let mut text = String::new();
    for id in ["table3", "3", "15", "16", "a2"] {
        text.push_str(&render(id, &scale).unwrap());
        text.push('\n');
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cheap_results.txt");
    if std::env::var_os("RESCQ_BLESS").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden missing — run with RESCQ_BLESS=1 to create it");
    assert_eq!(
        text, golden,
        "rendered results diverged from tests/golden/cheap_results.txt; \
         if a driver or its text changed on purpose, re-bless with RESCQ_BLESS=1"
    );
}
