//! Regenerates **Figure 1** of the paper: "Continuous sum of outbound data
//! rates over responding nodes running PIER on PlanetLab."
//!
//! 300 simulated nodes publish fresh `netstats` readings every 5 seconds while
//! the continuous query `SELECT SUM(out_rate) FROM netstats CONTINUOUS EVERY 5
//! SECONDS WINDOW 10 SECONDS` runs.  Partway through, a slice of the network
//! fails and later recovers, so both series of the figure — the network-wide
//! sum and the number of responding nodes — dip and recover.  Exits
//! non-zero unless the responding-nodes series dips below its peak, and
//! unless it returns to that peak, and stays there, after the failed nodes
//! recover; and when an epoch between the first and the last one reported
//! is missing.
//!
//! Output: one row per epoch, `epoch  time  sum_kbps  responding_nodes`
//! (a CSV copy is written to stdout after the table for plotting).
//!
//! Run with: `cargo run --release -p pier-bench --bin fig1_continuous_sum`

use pier_apps::netmon::NetworkMonitor;
use pier_bench::{env_parse, experiment_config, fmt_thousands, monitoring_testbed};
use pier_core::prelude::*;
use pier_simnet::ChurnSchedule;

fn main() {
    let nodes: usize = env_parse("PIER_NODES", 300);
    let seed: u64 = env_parse("PIER_SEED", 1);
    let epochs: usize = env_parse("PIER_EPOCHS", 24);

    eprintln!("[fig1] booting {nodes} PIER nodes …");
    let mut bed = monitoring_testbed(nodes, seed, experiment_config());
    let mut monitor = NetworkMonitor::new(nodes, seed);

    let origin = bed.nodes()[0];
    let sql = NetworkMonitor::figure1_sql(5, 10);
    eprintln!("[fig1] submitting: {sql}");
    let query = bed.submit_sql(origin, &sql).expect("continuous query must plan");

    // Churn: a fifth of the nodes (starting a third of the way into the
    // address space; nodes 100..160 at the default 300) fail a third of the
    // way through the run and recover later — the "responding nodes" series
    // of the figure dips accordingly.
    let victims: Vec<NodeAddr> = bed.nodes()[nodes / 3..][..nodes / 5].to_vec();
    let fail_at = bed.now() + Duration::from_secs((epochs as u64 * 5) / 3);
    let recover_at = bed.now() + Duration::from_secs((epochs as u64 * 5) * 2 / 3);
    bed.apply_churn(&ChurnSchedule::mass_failure(&victims, fail_at, Some(recover_at)));

    // Drive the workload: publish fresh readings every 5 s for the whole run,
    // then read back the complete epoch series.
    for _ in 0..epochs {
        monitor.publish_round(&mut bed);
        bed.run_for(Duration::from_secs(5));
    }
    bed.run_for(Duration::from_secs(10));

    println!();
    println!("Figure 1: continuous SUM(out_rate) over responding nodes");
    println!();
    println!(
        "{:>5} {:>10} {:>18} {:>18}",
        "epoch", "time(s)", "SUM(out_rate) KB/s", "responding nodes"
    );
    println!("{:->5} {:->10} {:->18} {:->18}", "", "", "", "");

    let mut series = Vec::new();
    for epoch in bed.epochs(origin, query) {
        let rows = bed.results(origin, query, epoch);
        let sum = rows.first().and_then(|r| r.get(0).as_f64()).unwrap_or(0.0);
        let responding = bed.contributors(origin, query, epoch);
        let t = epoch * 5;
        series.push((epoch, t, sum, responding));
        println!("{epoch:>5} {t:>10} {:>18} {responding:>18}", fmt_thousands(sum));
    }

    println!();
    println!("csv:epoch,time_s,sum_kbps,responding_nodes");
    for (e, t, s, r) in &series {
        println!("csv:{e},{t},{s:.1},{r}");
    }

    let peak = series.iter().map(|x| x.3).max().unwrap_or(0);
    let dip = series.iter().map(|x| x.3).min().unwrap_or(0);
    // After the failed nodes restart, the series must climb back to its
    // peak and stay there (epochs still finalizing when the run ends report
    // 0 and are skipped).  An aggregate that closed epochs early at a
    // lowered count would stay below the peak, or fall back under it.
    let after: Vec<&(u64, u64, f64, u64)> =
        series.iter().filter(|x| x.1 * 1_000_000 >= recover_at.as_micros() && x.3 > 0).collect();
    let back =
        after.iter().position(|x| x.3 == peak).filter(|&i| after[i..].iter().all(|x| x.3 == peak));
    let back_at = back.map_or("never".to_string(), |i| format!("epoch {}", after[i].0));
    println!();
    println!("epochs observed    : {}", series.len());
    println!(
        "responding nodes   : peak {peak}, dip {dip} (churn window), back at peak from {back_at}"
    );
    println!(
        "network cost       : {} messages, {} KB delivered, {} drops to failed nodes",
        bed.metrics().messages_delivered(),
        bed.metrics().bytes_delivered() / 1024,
        bed.metrics().messages_dropped_dead()
    );
    if dip >= peak {
        eprintln!("[fig1] FAILED: the churn window must dip the responding-nodes series");
        std::process::exit(1);
    }
    if back.is_none() {
        eprintln!("[fig1] FAILED: the responding-nodes series must return to its peak and stay");
        std::process::exit(1);
    }
    let missing: Vec<u64> = series.windows(2).flat_map(|w| w[0].0 + 1..w[1].0).collect();
    if !missing.is_empty() {
        eprintln!("[fig1] FAILED: epochs {missing:?} reported nothing");
        std::process::exit(1);
    }
}
