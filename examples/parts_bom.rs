//! A second recursive domain: a bill-of-materials (BOM) view.
//!
//! Assemblies contain sub-assemblies through a `contains` relation — the
//! same recursive-DTD shape as the paper's registrar example, but with
//! multi-field semantic attributes and deep sharing (standard parts like
//! screws appear under almost every assembly). Shows how to define a custom
//! ATG from scratch with the public API.
//!
//! Run with: `cargo run --example parts_bom`

use rxview::atg::Atg;
use rxview::prelude::*;
use rxview::relstore::tuple;
use rxview::xmlkit::Dtd;

fn bom_database() -> Database {
    use rxview::relstore::schema;
    let mut db = Database::new();
    db.create_table(
        schema("part")
            .col_str("pid")
            .col_str("pname")
            .col_str("kind")
            .key(&["pid"]),
    )
    .expect("fresh db");
    db.create_table(
        schema("contains")
            .col_str("parent")
            .col_str("child")
            .key(&["parent", "child"]),
    )
    .expect("fresh db");

    for p in [
        ("bike", "Bicycle", "assembly"),
        ("frame", "Frame", "assembly"),
        ("wheel", "Wheel", "assembly"),
        ("hub", "Hub", "assembly"),
        ("spoke", "Spoke", "part"),
        ("bolt", "Bolt M5", "part"),
    ] {
        db.insert("part", tuple![p.0, p.1, p.2]).expect("valid row");
    }
    // The bolt is used by nearly everything: a heavily shared subtree.
    for c in [
        ("bike", "frame"),
        ("bike", "wheel"),
        ("frame", "bolt"),
        ("wheel", "hub"),
        ("wheel", "spoke"),
        ("hub", "bolt"),
        ("spoke", "bolt"),
    ] {
        db.insert("contains", tuple![c.0, c.1]).expect("valid row");
    }
    db
}

fn bom_dtd() -> Dtd {
    let mut b = Dtd::builder("catalog");
    b.star("catalog", "part").expect("fresh");
    b.sequence("part", &["pid", "pname", "components"])
        .expect("fresh");
    b.star("components", "part").expect("fresh");
    b.build().expect("valid DTD")
}

fn bom_atg(db: &Database) -> Result<Atg, Box<dyn std::error::Error>> {
    // Top level: assemblies only.
    let q_catalog_part = SpjQuery::builder("Qcatalog_part")
        .from("part", "p")
        .where_col_eq_const(("p", "kind"), "assembly")
        .project(("p", "pid"), "pid")
        .project(("p", "pname"), "pname")
        .build(db)?;
    // Recursion: components of a part.
    let q_components_part = SpjQuery::builder("Qcomponents_part")
        .from("contains", "c")
        .from("part", "p")
        .where_col_eq_param(("c", "parent"), 0)
        .where_col_eq_col(("c", "child"), ("p", "pid"))
        .project(("p", "pid"), "pid")
        .project(("p", "pname"), "pname")
        .build(db)?;

    let mut b = Atg::builder(bom_dtd());
    b.attr("catalog", &[])
        .attr("part", &["pid", "pname"])
        .attr("pid", &["pid"])
        .attr("pname", &["pname"])
        .attr("components", &["pid"]);
    b.rule_query("catalog", "part", q_catalog_part, &[])
        .rule_project("part", "pid", &["pid"])
        .rule_project("part", "pname", &["pname"])
        .rule_project("part", "components", &["pid"])
        .rule_query("components", "part", q_components_part, &["pid"]);
    Ok(b.build(db)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let db = bom_database();
    let atg = bom_atg(&db)?;
    let mut sys = XmlViewSystem::new(atg, db)?;

    let tree = sys.expand_tree();
    println!(
        "BOM view: DAG {} nodes / {} edges; expanded tree {} nodes (the bolt subtree is shared {}×)\n",
        sys.view().n_nodes(),
        sys.view().n_edges(),
        tree.len(),
        {
            let part = sys.view().atg().dtd().type_id("part").unwrap();
            let bolt = sys.view().dag().genid().lookup(part, tuple!["bolt", "Bolt M5"].values()).unwrap();
            sys.view().dag().parents(bolt).len()
        }
    );
    println!("{}", tree.serialize(sys.view().atg().dtd()));

    // Add a washer under every hub AND every spoke in one recursive update.
    let mut db_delta = 0;
    for (target, desc) in [("hub", "hubs"), ("spoke", "spokes")] {
        // First make the part known to the database through the view itself:
        // inserting a part that doesn't exist in `part` yet exercises the
        // SAT-backed insertion translation (free columns get pinned or
        // freshened).
        let u = XmlUpdate::insert(
            "part",
            tuple!["washer", "Washer 5mm"],
            &format!("//part[pid={target}]/components"),
        )?;
        let r = sys.apply(&u, SideEffectPolicy::Proceed)?;
        db_delta += r.delta_r.len();
        println!(
            "insert washer under all {desc}: ∆V={} edge ops, ∆R={} tuple ops (SAT used: {})",
            r.delta_v_len,
            r.delta_r.len(),
            r.sat_used
        );
    }
    println!("total base-table ops: {db_delta}");

    // Remove every bolt — a group deletion across four different parents.
    let u = XmlUpdate::delete("//part[pid=bolt]")?;
    let r = sys.apply(&u, SideEffectPolicy::Proceed)?;
    println!(
        "delete all bolts: ∆V={} edge ops, ∆R={} tuple ops, GC'd {} nodes",
        r.delta_v_len,
        r.delta_r.len(),
        r.maintain.gc_nodes
    );

    sys.consistency_check()
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })?;
    println!(
        "\nfinal view:\n{}",
        sys.expand_tree().serialize(sys.view().atg().dtd())
    );
    println!("consistency check passed.");
    Ok(())
}
