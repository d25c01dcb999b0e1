//! The benchmark's own tests, on the tiny configuration of each workload:
//! every named metric is printed with its unit, every answer matches the
//! reference, and same-seed rounds repeat their sim-time metrics and
//! simnet counts exactly.

use pier_perfbench::oracle::Verdict;
use pier_perfbench::spans::Spans;
use pier_perfbench::workloads::{Scale, Workload};
use pier_perfbench::{round, run, Options, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        min_rounds: 1,
        spans_out: None,
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for w in Workload::ALL {
        let report = run(&tiny(w, false));
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.notes);
        assert!(report.attempted > 0);
        let names: Vec<_> = report.metrics.iter().map(|(k, (_, u))| (*k, *u)).collect();
        let mut expected = END_TO_END.to_vec();
        expected.sort();
        assert_eq!(names, expected, "{}", w.name());
        for (k, (v, _)) in &report.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {k} = {v}", w.name());
        }
        let json = report.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        assert!(json.contains("\"setup_s\": {\"value\": "), "{json}");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for w in Workload::ALL {
        let report = run(&tiny(w, true));
        assert!(report.correct, "{}: {:?}", w.name(), report.notes);
        let names: Vec<_> = report.metrics.iter().map(|(k, (_, u))| (*k, *u)).collect();
        let mut expected = PER_LAYER.to_vec();
        expected.sort();
        assert_eq!(names, expected, "{}", w.name());
    }
}

#[test]
fn same_seed_rounds_repeat_sim_time_metrics_and_message_counts() {
    for w in Workload::ALL {
        let a = round::run(w, 3, Scale::Tiny, &mut Spans::new(false));
        let b = round::run(w, 3, Scale::Tiny, &mut Spans::new(true));
        assert!(a.outcomes.iter().all(|o| o.verdict == Verdict::Ok), "{}", w.name());
        let times = |r: &round::Round| {
            r.outcomes
                .iter()
                .map(|o| (o.what.clone(), o.answer_ms, o.first_row_ms))
                .collect::<Vec<_>>()
        };
        assert_eq!(times(&a), times(&b), "{}", w.name());
        assert_eq!(a.events, b.events, "{}", w.name());
        // Byte counts may drift by a few bytes between runs; message,
        // timer and event counts may not.
        for k in ["simnet.msgs", "simnet.timers_fired", "dht.app_msgs", "engine.tuples_scanned"] {
            assert_eq!(a.counters[k], b.counters[k], "{}: {k}", w.name());
        }
    }
}
