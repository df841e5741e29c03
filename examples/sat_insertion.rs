//! The insertion-translation pipeline of §4.3 / Appendix A, up close.
//!
//! Re-creates the spirit of Examples 8–9: a view whose free columns range
//! over a *finite* domain, so fresh constants cannot avoid a side effect.
//! The first view-level insert is decided by an existing row (no SAT); the
//! second leaves the join column unpinned, so its side-effect conditions
//! become SAT clauses and the WalkSAT solver decides how to instantiate the
//! inserted tuples.
//!
//! Run with: `cargo run --example sat_insertion`

use rxview::atg::Atg;
use rxview::prelude::*;
use rxview::relstore::{schema, tuple, Value, ValueType};
use rxview::satsolver::{walksat, CnfFormula, WalkSatResult};
use rxview::xmlkit::Dtd;

/// R1(a: key, b: bool-like finite), R2(c: key, d: finite) — the shape of
/// Example 8, published as a flat XML view pairing R1 and R2 rows on b = d.
/// R1 holds `(a0, 0)`; R2 starts empty.
fn database() -> Database {
    let mut db = Database::new();
    db.create_table(
        schema("r1")
            .col_str("a")
            .col_finite("b", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["a"]),
    )
    .expect("fresh db");
    db.create_table(
        schema("r2")
            .col_str("c")
            .col_finite("d", ValueType::Int, vec![Value::Int(0), Value::Int(1)])
            .key(&["c"]),
    )
    .expect("fresh db");
    db.insert("r1", tuple!["a0", 0i64]).expect("valid row");
    db
}

fn dtd() -> Dtd {
    let mut b = Dtd::builder("doc");
    b.star("doc", "row").expect("fresh");
    b.sequence("row", &["left", "right"]).expect("fresh");
    b.build().expect("valid DTD")
}

fn build_atg(db: &Database) -> Atg {
    // Q = π_{a,c}(σ_{b=d}(R1 × R2)) — Example 8's view, key-preserving.
    let q = SpjQuery::builder("Qdoc_row")
        .from("r1", "x")
        .from("r2", "y")
        .where_col_eq_col(("x", "b"), ("y", "d"))
        .project(("x", "a"), "a")
        .project(("y", "c"), "c")
        .build(db)
        .expect("valid query");
    let mut b = Atg::builder(dtd());
    b.attr("doc", &[])
        .attr("row", &["a", "c"])
        .attr("left", &["a"])
        .attr("right", &["c"]);
    b.rule_query("doc", "row", q, &[])
        .rule_project("row", "left", &["a"])
        .rule_project("row", "right", &["c"]);
    b.build(db).expect("valid ATG")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // First, the raw solver on the paper's style of encoding.
    println!("== raw WalkSAT on a toy instance ==");
    let mut f = CnfFormula::new();
    let x1_is_0 = f.new_var();
    let x1_is_1 = f.new_var();
    f.add_clause([x1_is_0.pos(), x1_is_1.pos()]); // domain clause
    f.add_not_both(x1_is_0, x1_is_1); // exclusion
    f.add_clause([x1_is_1.neg()]); // side effect: ¬(x1 = 1)
    match walksat(&f) {
        WalkSatResult::Sat(m) => {
            println!("  satisfiable: x1=0 chosen: {}", m.get(x1_is_0));
        }
        WalkSatResult::Unknown => println!("  no assignment found"),
    }

    // Now end-to-end through the view.
    println!("\n== view-level insertion with finite-domain free columns ==");
    let mut db = database();
    db.insert("r2", tuple!["c0", 1i64])?;
    let atg = build_atg(&db);
    let mut sys = XmlViewSystem::new(atg, db)?;
    println!("initial view rows (a0 pairs with nothing — b=0 vs d=1):");
    println!("{}", sys.expand_tree().serialize(sys.view().atg().dtd()));

    // Insert the pair (a1, c0): r1(a1, b) must join r2(c0) on b = d, and
    // the existing row pins d = 1, so b = 1 with no choice left — the SAT
    // step is not reached.
    let u = XmlUpdate::insert("row", tuple!["a1", "c0"], ".")?;
    // `.` selects the root (doc) — rows are inserted under it.
    let r = sys.apply(&u, SideEffectPolicy::Proceed)?;
    println!(
        "insert row (a1, c0): ∆R = {} op(s), SAT used: {}",
        r.delta_r.len(),
        r.sat_used
    );
    print!("{}", r.delta_r);
    let b_val = sys
        .base()
        .table("r1")?
        .get(&tuple!["a1"])
        .expect("inserted")[1]
        .clone();
    println!("chosen b for a1: {b_val} (must be 1 = r2(c0).d)");
    sys.consistency_check()
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    println!("consistency check passed");

    // Now the case the SAT step exists for: r1 = {a0: b=0} and r2 empty.
    // Inserting the pair (a3, c9) creates r1(a3, b) and r2(c9, d) with the
    // join variable b = d left unpinned by any existing row, and the
    // side-effect row (a0, c9) — present iff d = 0 — turns into a clause
    // the solver must satisfy: it picks b = d = 1.
    sys = {
        let db = database();
        let atg = build_atg(&db);
        XmlViewSystem::new(atg, db)?
    };
    let u = XmlUpdate::insert("row", tuple!["a3", "c9"], ".")?;
    let r = sys.apply(&u, SideEffectPolicy::Proceed)?;
    println!("\ninsert row (a3, c9) with r1 = {{a0:0}}, r2 empty:");
    println!("  ∆R = {} op(s), SAT used: {}", r.delta_r.len(), r.sat_used);
    print!("  {}", r.delta_r);
    assert!(
        r.sat_used,
        "the unpinned join column must reach the SAT step"
    );
    let d_val = sys
        .base()
        .table("r2")?
        .get(&tuple!["c9"])
        .expect("inserted")[1]
        .clone();
    println!("  chosen d for c9: {d_val} (d=0 would pair a0 with c9)");
    sys.consistency_check()
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    println!("  consistency check passed");
    Ok(())
}
