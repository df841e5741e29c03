//! Fixtures and update-stream generators the root test files share
//! (`mod common;` — Cargo does not build this directory as a test of its
//! own).
#![allow(dead_code)] // each test file uses its own subset

use proptest::prelude::*;
use rxview::core::{XmlUpdate, XmlViewSystem};
use rxview::relstore::{Tuple, Value};
use rxview::workload::{
    registrar_atg, registrar_database, synthetic_atg, synthetic_database, SyntheticConfig,
};

/// The synthetic view over `n` `C` rows generated from `seed`.
pub fn synthetic(n: usize, seed: u64) -> XmlViewSystem {
    let mut cfg = SyntheticConfig::with_size(n);
    cfg.seed = seed;
    let db = synthetic_database(&cfg);
    let atg = synthetic_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// The registrar view of Fig.1.
pub fn registrar() -> XmlViewSystem {
    let db = registrar_database();
    let atg = registrar_atg(&db).expect("valid ATG");
    XmlViewSystem::new(atg, db).expect("publishes")
}

/// The same update with `//` in front of its path.
pub fn descendant_headed(u: &XmlUpdate) -> XmlUpdate {
    let path = format!("//{}", u.path());
    match u {
        XmlUpdate::Insert { ty, attr, .. } => XmlUpdate::insert(ty.clone(), attr.clone(), &path),
        XmlUpdate::Delete { .. } => XmlUpdate::delete(&path),
    }
    .expect("a printed path parses with `//` in front")
}

/// A randomly chosen update on the registrar system (anchored, `//`-headed
/// and wildcard-rooted phrasings of the same edits).
#[derive(Debug, Clone)]
pub enum Op {
    InsertPrereq { parent: usize, child: usize },
    DeletePrereq { parent: usize, child: usize },
    InsertStudent { ssn: usize, course: usize },
    DeleteStudentEverywhere { ssn: usize },
    DeleteStudentOf { ssn: usize, course: usize },
}

pub const COURSES: [(&str, &str); 4] = [
    ("CS650", "Advanced DB"),
    ("CS320", "Algorithms"),
    ("CS240", "Data Structures"),
    ("MA100", "Calculus"),
];

pub fn arb_op() -> impl Strategy<Value = (Op, u8, bool)> {
    let op = prop_oneof![
        (0usize..4, 0usize..4).prop_map(|(parent, child)| Op::InsertPrereq { parent, child }),
        (0usize..4, 0usize..4).prop_map(|(parent, child)| Op::DeletePrereq { parent, child }),
        (0usize..6, 0usize..4).prop_map(|(ssn, course)| Op::InsertStudent { ssn, course }),
        (0usize..6).prop_map(|ssn| Op::DeleteStudentEverywhere { ssn }),
        (0usize..6, 0usize..4).prop_map(|(ssn, course)| Op::DeleteStudentOf { ssn, course }),
    ];
    (op, any::<u8>(), any::<bool>())
}

pub fn registrar_update(op: &Op, phrasing: u8) -> Option<XmlUpdate> {
    let head = |course: usize| {
        let cno = COURSES[course].0;
        match phrasing % 3 {
            0 => format!("course[cno={cno}]"),
            1 => format!("//course[cno={cno}]"),
            _ => format!("*[cno={cno}]"),
        }
    };
    let person = |ssn: usize| {
        Tuple::from_values([
            Value::from(format!("P{ssn:02}")),
            Value::from(format!("Person {ssn}")),
        ])
    };
    Some(
        match op {
            Op::InsertPrereq { parent, child } if parent == child => return None,
            Op::InsertPrereq { parent, child } => XmlUpdate::insert(
                "course",
                Tuple::from_values([
                    Value::from(COURSES[*child].0),
                    Value::from(COURSES[*child].1),
                ]),
                &format!("{}/prereq", head(*parent)),
            ),
            Op::DeletePrereq { parent, child } => XmlUpdate::delete(&format!(
                "{}/prereq/course[cno={}]",
                head(*parent),
                COURSES[*child].0
            )),
            Op::InsertStudent { ssn, course } => XmlUpdate::insert(
                "student",
                person(*ssn),
                &format!("{}/takenBy", head(*course)),
            ),
            Op::DeleteStudentEverywhere { ssn } => {
                XmlUpdate::delete(&format!("//student[ssn=P{ssn:02}]"))
            }
            Op::DeleteStudentOf { ssn, course } => {
                XmlUpdate::delete(&format!("{}/takenBy/student[ssn=P{ssn:02}]", head(*course)))
            }
        }
        .expect("generated update parses"),
    )
}
