//! One-at-a-time application as the paper's framework (Fig. 3) states it:
//! the sequential oracle the engine's equivalence and recovery batteries,
//! replay and `XmlViewSystem::apply` are held equal to.

use crate::eval::eval_xpath_on_dag;
use rxview_core::{Reachability, SideEffectPolicy, UpdateOutcome, XmlUpdate, XmlViewSystem};

/// The §3.2 two-pass evaluation over all of `L`, run verbatim by
/// [`eval_xpath_on_dag`] (no scope, no compiled plan) with `M` computed by
/// Algorithm Reach for it, then translation, then the maintenance of that
/// one update.
pub fn reference_apply(
    sys: &mut XmlViewSystem,
    update: &XmlUpdate,
    policy: SideEffectPolicy,
) -> UpdateOutcome {
    let m = Reachability::compute(sys.view().dag(), sys.topo());
    let eval = eval_xpath_on_dag(sys.view(), sys.topo(), &m, update.path());
    let (mut report, job) = sys.apply_deferred(update, policy, eval)?;
    let Ok(maintain) = sys.fold_maintenance(vec![job]);
    report.maintain = maintain;
    Ok(report)
}
