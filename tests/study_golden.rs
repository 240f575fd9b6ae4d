//! The solver-only sections of the pinned paper study.
//!
//! `tests/goldens/llc_study_400k.txt` is `llc-study all -n 400000`'s
//! stdout. Its tables and its thermal section come from the CACTI-D
//! solutions alone, with no simulation, so they are checked here against
//! the renderers that print them; the simulated figures between them are
//! compared byte for byte by the release run in `ci.sh`.

use cacti_d::study::configs::{build, LlcKind};
use cacti_d::study::{figure1, table1, table2, table3, thermal};
use cacti_d::tech::TechNode;

const GOLDEN: &str = include_str!("goldens/llc_study_400k.txt");

#[test]
fn study_golden_opens_with_the_solver_tables_and_closes_with_thermal() {
    let tables = format!(
        "{}\n{}\n{}\n{}\n",
        table1::render(TechNode::N32),
        table2::render(),
        figure1::render(),
        table3::render(),
    );
    assert!(
        GOLDEN.starts_with(&tables),
        "the golden's tables differ from the renderers':\n{tables}"
    );
    let estimates: Vec<_> = LlcKind::ALL[1..]
        .iter()
        .filter_map(|&kind| thermal::estimate(&build(kind)))
        .collect();
    assert_eq!(estimates.len(), 5);
    let thermal = format!("{}\n", thermal::render(&estimates));
    assert!(
        GOLDEN.ends_with(&thermal),
        "the golden's thermal section differs from the renderer's:\n{thermal}"
    );
}
