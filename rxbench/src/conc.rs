//! Non-gating concurrent diagnostics: one real reader thread beside the
//! closed-loop writer. This is what ROADMAP means by "reads while writes
//! are committing"; on a 2-core box the two threads race the engine's own
//! threads for cores and the numbers move ±8–17 % between identical runs,
//! so they are printed with their spread and gate nothing.

use crate::catalogue::Measured;
use crate::session::{Reads, Session};
use crate::summary::{max, median, min, ms, quantile};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const PASSES: usize = 3;

/// Runs [`PASSES`] passes of `spec.conc_windows` commits each on the
/// session's live engine (a fixed count, so a traced run's op stream does
/// not depend on the machine's speed) and reports the median, minimum and
/// maximum of each number.
pub(crate) fn diagnose(
    s: &mut Session,
    seed: u64,
    m: &mut Vec<Measured>,
    report: &mut Vec<String>,
) {
    let windows = s.spec.conc_windows;
    let w = s.spec.window;
    let (mut ups, mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for p in 0..PASSES {
        let stop = AtomicBool::new(false);
        let engine = s.engine.clone();
        let mut reads = Reads::new(s.spec.groups, seed.wrapping_add(1 + p as u64));
        let (accepted, commit_wall, read_ms, wall) = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut lat = Vec::new();
                let mut i = 0;
                // SeqCst: the flag orders nothing else, but it is read once
                // per multi-millisecond evaluation.
                while !stop.load(Ordering::SeqCst) {
                    let (_, path) = reads.path(i);
                    i += 1;
                    let t = Instant::now();
                    let snap = engine.snapshot();
                    std::hint::black_box(snap.eval(&path));
                    drop(snap);
                    lat.push(ms(t.elapsed()));
                }
                lat
            });
            let t = Instant::now();
            let (mut accepted, mut commit_wall) = (0usize, Duration::ZERO);
            for _ in 0..windows {
                let ops = s.view_window(w);
                let win = s.commit_window(ops, 0);
                accepted += win.accepted();
                commit_wall += win.wall;
            }
            let wall = t.elapsed();
            stop.store(true, Ordering::SeqCst);
            let lat = reader.join().expect("reader thread ran to its stop flag");
            (accepted, commit_wall, lat, wall)
        });
        ups.push(accepted as f64 / commit_wall.as_secs_f64());
        rps.push(read_ms.len() as f64 / wall.as_secs_f64());
        p50.push(median(&read_ms));
        p99.push(quantile(&read_ms, 0.99));
    }
    report.push(format!(
        "concurrent diagnostics (NON-GATING; one reader thread beside the writer, \
         {PASSES} passes of {windows} commits, median [min .. max]):"
    ));
    for (names, values, unit) in [
        (
            [
                "conc.updates_per_s",
                "conc.updates_per_s.min",
                "conc.updates_per_s.max",
            ],
            &ups,
            "1/s",
        ),
        (
            [
                "conc.reads_per_s",
                "conc.reads_per_s.min",
                "conc.reads_per_s.max",
            ],
            &rps,
            "1/s",
        ),
        (
            [
                "conc.read_p50_ms",
                "conc.read_p50_ms.min",
                "conc.read_p50_ms.max",
            ],
            &p50,
            "ms",
        ),
        (
            [
                "conc.read_p99_ms",
                "conc.read_p99_ms.min",
                "conc.read_p99_ms.max",
            ],
            &p99,
            "ms",
        ),
    ] {
        let (med, lo, hi) = (median(values), min(values), max(values));
        report.push(format!(
            "  {:<20} {med:>10.3} {unit} [{lo:.3} .. {hi:.3}]",
            names[0]
        ));
        m.push((names[0], med));
        m.push((names[1], lo));
        m.push((names[2], hi));
    }
}
