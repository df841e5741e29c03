//! Concurrency tests of the telemetry primitives (`rxview_engine::obs`):
//! the lock-free counters, histograms and the flight recorder the engine's
//! threads record into at once.

use rxview_atg::{registrar_atg, registrar_database};
use rxview_core::XmlViewSystem;
use rxview_engine::obs::{FieldValue, FlightRecorder, Histogram};
use rxview_engine::Engine;
use std::sync::Arc;

/// N threads × M reader acquisitions must land exactly N·M on the engine's
/// `snapshot.reads` counter — the lock-free handles' core consistency
/// contract.
#[test]
fn concurrent_counter_increments_are_all_counted() {
    const N_THREADS: usize = 8;
    const M_INCREMENTS: u64 = 10_000;
    let db = registrar_database();
    let atg = registrar_atg(&db).expect("registrar ATG");
    let engine = Engine::new(XmlViewSystem::new(atg, db).expect("publishes"));
    let handles: Vec<_> = (0..N_THREADS)
        .map(|_| {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..M_INCREMENTS {
                    drop(engine.snapshot());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics");
    }
    assert_eq!(
        engine.stats().report().snapshot_reads,
        N_THREADS as u64 * M_INCREMENTS
    );
}

/// Same contract for histograms: every concurrent record lands, and the
/// exact aggregates (count, sum) reflect all of them.
#[test]
fn concurrent_histogram_records_are_all_counted() {
    const N_THREADS: u64 = 8;
    const M_RECORDS: u64 = 5_000;
    let hist = Arc::new(Histogram::default());
    let handles: Vec<_> = (0..N_THREADS)
        .map(|t| {
            let hist = Arc::clone(&hist);
            std::thread::spawn(move || {
                for i in 0..M_RECORDS {
                    hist.record(t * M_RECORDS + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics");
    }
    let n = N_THREADS * M_RECORDS;
    assert_eq!(hist.count(), n);
    assert_eq!(hist.sum(), n * (n - 1) / 2); // 0..n recorded exactly once each
    assert_eq!(hist.max(), n - 1);
    let snap = hist.snapshot();
    assert_eq!(snap.buckets.iter().sum::<u64>(), n);
}

/// Concurrent recorders interleave but never lose or duplicate sequence
/// numbers within the retained window.
#[test]
fn concurrent_flight_recording_keeps_ordered_unique_seqs() {
    let rec = Arc::new(FlightRecorder::new(512));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                for i in 0..200u64 {
                    let fields = vec![("thread", FieldValue::U64(t)), ("i", FieldValue::U64(i))];
                    rec.record("tick", fields);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panics");
    }
    let events = rec.events();
    assert_eq!(events.len(), 512);
    assert_eq!(rec.evicted(), 800 - 512);
    for pair in events.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "contiguous seqs");
    }
    assert_eq!(events.last().unwrap().seq, 799);
}
