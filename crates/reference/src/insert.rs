//! The equality closure of an inserted edge (§4.3, Appendix A
//! preprocessing), derived interpretively: the specification the edge
//! view's cell program (`EdgeRecord::cells`, which phase 1 of every
//! insertion runs) is held equal to (`tests/reference_oracles.rs`). It
//! keeps its own union-find; production derives classes once per edge view
//! (`SpjQuery::eq_closure`).

use rxview_core::InsertRejection;
use rxview_relstore::{ColRef, EqClosure, Operand, SchemaProvider, SpjQuery, Tuple, Value};
use std::collections::HashMap;

/// An inserted edge's resolved equality closure over its edge view's
/// columns.
#[derive(Debug, PartialEq)]
pub struct EdgeClosure {
    /// The equality classes of the edge view's columns.
    pub classes: EqClosure,
    /// Pinned value per class representative.
    pub known: HashMap<usize, Value>,
}

/// The interpretive derivation of an inserted edge's [`EdgeClosure`] over
/// its edge view `query` (`Atg::edge_view_query`): union-find over the
/// view's `Col = Col` predicates, then the values its output row `out`
/// (`$A` fields, or the unit column, ++ `$B` fields) and its constant
/// predicates pin, rejecting a class pinned twice with different values —
/// so a rule's guard on its parameters, a `gen_A` column of the view, is
/// read like every other pin.
///
/// # Panics
/// If a FROM table is unknown to `provider`, or `out` is not a row of the
/// view's arity.
pub fn compute_edge_closure(
    query: &SpjQuery,
    provider: &impl SchemaProvider,
    out: &Tuple,
) -> Result<EdgeClosure, InsertRejection> {
    assert_eq!(out.arity(), query.projection().len(), "edge row arity");
    // Column universe.
    let mut offsets = Vec::with_capacity(query.from().len());
    let mut total = 0usize;
    for tr in query.from() {
        offsets.push(total);
        total += provider
            .schema_of(&tr.table)
            .expect("FROM table known")
            .arity();
    }
    let idx = |c: ColRef| offsets[c.rel] + c.col;
    // Local union-find over columns.
    let mut parent: Vec<usize> = (0..total).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for p in query.predicates() {
        if let (Operand::Col(a), Operand::Col(b)) = (&p.left, &p.right) {
            let (ra, rb) = (find(&mut parent, idx(*a)), find(&mut parent, idx(*b)));
            parent[ra] = rb;
        }
    }
    // Known values per class. All unions happened above, so the
    // representatives observed here are final.
    let mut known: HashMap<usize, Value> = HashMap::new();
    let mut learn = |parent: &mut [usize], c: ColRef, v: Value| -> Result<(), InsertRejection> {
        let r = find(parent, idx(c));
        match known.get(&r) {
            Some(x) if *x != v => Err(InsertRejection::KeyConflict {
                table: "<inconsistent edge derivation>".into(),
            }),
            _ => {
                known.insert(r, v);
                Ok(())
            }
        }
    };
    for (pos, c) in query.projection().iter().enumerate() {
        learn(&mut parent, *c, out[pos].clone())?;
    }
    for p in query.predicates() {
        if let (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) =
            (&p.left, &p.right)
        {
            learn(&mut parent, *c, v.clone())?;
        }
    }
    let reps = (0..total).map(|i| find(&mut parent, i)).collect();
    Ok(EdgeClosure {
        classes: EqClosure { offsets, reps },
        known,
    })
}
