//! Side-effect detection walkthrough (§2.1 / §3.2).
//!
//! Demonstrates every side-effect scenario the paper discusses on the Fig.1
//! instance:
//!  - an insertion below a *shared* subtree (side effect: all occurrences
//!    change);
//!  - a deletion whose affected parent occurs once (clean, even though the
//!    deleted child is shared);
//!  - a deletion whose affected parent is shared (side effect);
//!  - the `//`-everywhere forms that are side-effect free by construction.
//!
//! Run with: `cargo run --example registrar_side_effects`

use rxview::prelude::*;
use rxview::relstore::tuple;
use rxview::workload::{registrar_atg, registrar_database};
use rxview::xmlkit::parse_xpath;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sys = XmlViewSystem::new(registrar_atg(&registrar_database())?, registrar_database())?;

    let cases: &[(&str, bool, &str)] = &[
        (
            "course[cno=CS650]//course[cno=CS320]/prereq",
            false, // insert
            "CS320 also occurs top-level: inserting below only the CS650 copy is impossible",
        ),
        (
            "course[cno=CS650]/prereq/course[cno=CS320]",
            true, // delete
            "the affected parent (CS650's prereq) occurs once: clean deletion",
        ),
        (
            "course[cno=CS650]//course[cno=CS320]/takenBy/student[ssn=S02]",
            true,
            "the affected parent (CS320's takenBy) is shared with the top-level CS320",
        ),
        (
            "//course[cno=CS320]//student[ssn=S02]",
            true,
            "`//` selects every occurrence: nothing is left unmatched",
        ),
        (
            "//course",
            true,
            "deleting every course occurrence is consistent",
        ),
    ];

    for (path, for_delete, why) in cases {
        let p = parse_xpath(path)?;
        let eval = sys.evaluate(&p);
        let s = eval.side_effects(sys.view(), *for_delete);
        let kind = if *for_delete { "delete" } else { "insert" };
        println!("{kind} {path}");
        println!(
            "  r[[p]] = {} node(s), Ep(r) = {} edge(s)",
            eval.selected.len(),
            eval.edge_parents.len()
        );
        if s.is_empty() {
            println!("  no side effects — {why}");
        } else {
            println!(
                "  SIDE EFFECTS at {} unmatched occurrence(s) — {why}",
                s.len()
            );
        }
        println!();
    }

    // End-to-end: what the user experience looks like when a side effect is
    // detected and they choose to carry on (§2.1: "users need to be
    // consulted").
    let u = XmlUpdate::insert(
        "course",
        tuple!["MA100", "Calculus"],
        "course[cno=CS650]//course[cno=CS320]/prereq",
    )?;
    println!("applying `{u}` with Abort policy:");
    println!(
        "  -> {}",
        sys.apply(&u, SideEffectPolicy::Abort).unwrap_err()
    );
    println!("applying again with Proceed policy (the revised semantics):");
    let r = sys.apply(&u, SideEffectPolicy::Proceed)?;
    println!(
        "  -> accepted; MA100 is now a prerequisite of *every* CS320 occurrence ({} ∆R op(s))",
        r.delta_r.len()
    );
    sys.consistency_check()
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    println!("  -> consistency check passed");
    Ok(())
}
