//! The oracle: one-at-a-time application through the library, and the
//! checked-in digests every default-seed run is compared against.

use crate::json::Json;
use crate::session::{self, fixture, state_hashes, Digest, Options};
use crate::workloads::Spec;
use rxview_core::XmlViewSystem;
use rxview_workload::{synthetic_atg, synthetic_database};
use std::path::Path;

/// What `expected/<workload>.json` holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Seed the digest was produced with.
    pub seed: u64,
    /// `--seconds` the digest was produced with.
    pub seconds: u64,
    /// The session's inputs, outcomes and final state.
    pub digest: Digest,
}

impl Expected {
    fn to_json(&self, workload: &str) -> Json {
        let d = &self.digest;
        Json::obj([
            ("workload", Json::Str(workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("ops", Json::Num(d.ops as f64)),
            ("stream_hash", Json::Str(d.stream_hash.clone())),
            ("accepted", Json::Num(d.accepted as f64)),
            ("accept_hash", Json::Str(d.accept_hash.clone())),
            ("edge_hash", Json::Str(d.edge_hash.clone())),
            ("base_hash", Json::Str(d.base_hash.clone())),
        ])
    }

    /// Reads `dir/<workload>.json`; `None` if absent or malformed.
    pub fn load(dir: &Path, workload: &str) -> Option<Expected> {
        let text = std::fs::read_to_string(dir.join(format!("{workload}.json"))).ok()?;
        let j = Json::parse(&text).ok()?;
        let num = |k: &str| j.get(k)?.as_f64().map(|n| n as u64);
        let text = |k: &str| j.get(k)?.as_str().map(str::to_owned);
        Some(Expected {
            seed: num("seed")?,
            seconds: num("seconds")?,
            digest: Digest {
                ops: num("ops")?,
                stream_hash: text("stream_hash")?,
                accepted: num("accepted")?,
                accept_hash: text("accept_hash")?,
                edge_hash: text("edge_hash")?,
                base_hash: text("base_hash")?,
            },
        })
    }
}

/// Where a run's digest disagrees with the oracle's, one line each. A run
/// whose *inputs* differ (another generator, another engine-state-dependent
/// sample) cannot be compared and reports exactly that.
pub fn compare(run: &Digest, oracle: &Digest) -> Vec<String> {
    if (run.ops, &run.stream_hash) != (oracle.ops, &oracle.stream_hash) {
        return vec![format!(
            "op stream differs from the oracle's ({} ops {} vs {} ops {}): re-run `rxbench verify`",
            run.ops, run.stream_hash, oracle.ops, oracle.stream_hash
        )];
    }
    let mut out = Vec::new();
    if (run.accepted, &run.accept_hash) != (oracle.accepted, &oracle.accept_hash) {
        out.push(format!(
            "accept/reject pattern differs from the oracle's ({} accepted vs {})",
            run.accepted, oracle.accepted
        ));
    }
    if run.edge_hash != oracle.edge_hash {
        out.push("final view edges differ from the oracle's".into());
    }
    if run.base_hash != oracle.base_hash {
        out.push("final base rows differ from the oracle's".into());
    }
    out
}

/// Runs one full session of `spec`, replays every update it submitted one
/// at a time through [`XmlViewSystem::apply`] on a fresh system (untimed;
/// minutes), checks that the engine's accept/reject pattern and final
/// `(I, V, M, L)` agree with that replay, and writes the digest to
/// `expected_dir/<workload>.json`.
pub fn verify(
    spec: Spec,
    seed: u64,
    seconds: u64,
    out_dir: &Path,
    expected_dir: &Path,
) -> Result<(), String> {
    println!("verify {}: engine session…", spec.name);
    let outcome = session::run(&Options {
        spec: spec.clone(),
        seed,
        trace: false,
        out_dir: out_dir.to_path_buf(),
        keep_ops: true,
    });
    if outcome.failed > 0 {
        return Err(format!(
            "session failed {} operations: {}",
            outcome.failed,
            outcome.problems.join("; ")
        ));
    }
    println!(
        "verify {}: replaying {} updates one at a time…",
        spec.name,
        outcome.ops.len()
    );
    let db = synthetic_database(&fixture(&spec));
    let atg = synthetic_atg(&db).map_err(|e| e.to_string())?;
    let mut sys = XmlViewSystem::new(atg, db).map_err(|e| e.to_string())?;
    let mut accepted = 0u64;
    for (i, (op, engine_ok)) in outcome.ops.iter().enumerate() {
        let ok = sys.apply(&op.update, op.policy).is_ok();
        accepted += u64::from(ok);
        if ok != *engine_ok {
            return Err(format!(
                "update {i} ({}): engine {}, one-at-a-time application {}",
                op.update,
                if *engine_ok { "accepted" } else { "rejected" },
                if ok { "accepts" } else { "rejects" },
            ));
        }
    }
    sys.consistency_check()
        .map_err(|e| format!("oracle state inconsistent: {e}"))?;
    let (edge_hash, base_hash) = state_hashes(&sys);
    let oracle = Digest {
        accepted,
        edge_hash,
        base_hash,
        ..outcome.digest.clone()
    };
    let diffs = compare(&outcome.digest, &oracle);
    if !diffs.is_empty() {
        return Err(diffs.join("; "));
    }
    std::fs::create_dir_all(expected_dir).map_err(|e| e.to_string())?;
    let path = expected_dir.join(format!("{}.json", spec.name));
    let expected = Expected {
        seed,
        seconds,
        digest: oracle,
    };
    std::fs::write(&path, expected.to_json(spec.name).pretty()).map_err(|e| e.to_string())?;
    println!(
        "verify {}: engine and oracle agree on {} updates ({} accepted) and the final state; wrote {}",
        spec.name,
        outcome.ops.len(),
        accepted,
        path.display()
    );
    Ok(())
}
