//! The equality closure of an inserted edge (§4.3, Appendix A
//! preprocessing), derived interpretively: the specification
//! `TranslationTemplates::instantiate_insert` (the compiled skeleton every
//! insertion instantiates) is held equal to (`tests/reference_oracles.rs`).
//! It keeps its own union-find; production derives classes once per rule
//! (`SpjQuery::eq_closure`).

use rxview_core::InsertRejection;
use rxview_relstore::{ColRef, EqClosure, Operand, SpjQuery, TableSchema, Tuple, Value};
use std::collections::HashMap;

/// An inserted edge's resolved equality closure, as
/// `rxview_core::EdgeClosure` reads it back through `classes()` and
/// `known()`.
#[derive(Debug, PartialEq)]
pub struct EdgeClosure {
    /// The equality classes of the rule query's columns.
    pub classes: EqClosure,
    /// Pinned value per class representative.
    pub known: HashMap<usize, Value>,
}

/// The interpretive derivation of an inserted edge's [`EdgeClosure`]:
/// union-find over the rule query's `Col = Col` predicates, then the values
/// its projection (`child_attr`), parameters (`parent_attr` through
/// `param_fields`) and constants pin, rejecting a class pinned twice with
/// different values. `schemas` are those of the query's FROM entries, in
/// order.
pub fn compute_edge_closure(
    schemas: &[&TableSchema],
    query: &SpjQuery,
    param_fields: &[usize],
    parent_attr: &Tuple,
    child_attr: &Tuple,
) -> Result<EdgeClosure, InsertRejection> {
    // Column universe.
    let mut offsets = Vec::with_capacity(schemas.len());
    let mut total = 0usize;
    for schema in schemas {
        offsets.push(total);
        total += schema.arity();
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
        learn(&mut parent, *c, child_attr[pos].clone())?;
    }
    for p in query.predicates() {
        match (&p.left, &p.right) {
            (Operand::Col(c), Operand::Const(v)) | (Operand::Const(v), Operand::Col(c)) => {
                learn(&mut parent, *c, v.clone())?;
            }
            (Operand::Col(c), Operand::Param(i)) | (Operand::Param(i), Operand::Col(c)) => {
                learn(&mut parent, *c, parent_attr[param_fields[*i]].clone())?;
            }
            _ => {}
        }
    }
    let reps = (0..total).map(|i| find(&mut parent, i)).collect();
    Ok(EdgeClosure {
        classes: EqClosure { offsets, reps },
        known,
    })
}
