//! Keyed-pool skew matrix: uniform vs Zipfian key traffic over plain
//! per-key buckets.
//!
//! The question this binary answers and pins in version control
//! (`BENCH_zipf.json`): what does a keyed add+remove cost when a Zipf(1.1)
//! key stream funnels most traffic through a few buckets, against the
//! same pool under uniform keys, and how does adding segments relieve it?
//!
//! ```sh
//! cargo run --release -p bench --bin zipf                      # print JSON
//! cargo run --release -p bench --bin zipf -- --out BENCH_zipf.json
//! cargo run --release -p bench --bin zipf -- --quick           # CI smoke
//! ```
//!
//! Rows are `zipf/<dist>/t<threads>s<segments>`, ns per operation,
//! best-of-`--repeat` wall-clock floors, slowest thread. Each operation is
//! half an add(key)+remove(key) pair over a prefilled 512-key space (see
//! [`bench::keyed`]); the pair shape guarantees every remove is
//! satisfiable, so the number prices the operation, not a wait. Every
//! round runs an untimed warmup first, so bucket capacities have grown
//! before the timed section starts.
//!
//! Both distributions are *interleaved* within each (threads, segments)
//! cell — round-robin across the repeat floors — so the uniform and Zipf
//! rows of a cell sample the same slice of host time. The JSON header
//! records `host_cpus` and `measured_parallel` (see [`bench::host`]): on a
//! single-CPU host the multi-threaded cells measure time-sliced
//! interleaving.

use bench::host;
use bench::keyed::{keyed_round, KEY_SPACE};
use harness::cli::Args;
use workload::KeyDist;

/// The Zipf exponent of the skewed rows: the classic "web-like" skew
/// where the hottest key absorbs a double-digit percentage of traffic.
const ZIPF_S: f64 = 1.1;

fn main() {
    let args = Args::from_env();
    let quick = args.flag("quick");
    // Untimed warmup pairs per round (total across threads). The timed
    // section is kept short and the repeat count high: interleaved short
    // rounds give every variant many shots at the host's quiet windows,
    // which is what makes the floors comparable on a shared machine.
    let warmup: u64 = args.parse_or("warmup", if quick { 4_000 } else { 40_000 });
    let pairs: u64 = args.parse_or("ops", if quick { 4_000 } else { 40_000 });
    let repeat: usize = args.parse_or("repeat", if quick { 1 } else { 21 });
    let threads: Vec<usize> = if quick { vec![2] } else { vec![2, 4] };
    let (host_cpus, measured_parallel) = host::probe_and_warn();

    let uniform = KeyDist::Uniform { keys: KEY_SPACE };
    let zipf = KeyDist::Zipf { keys: KEY_SPACE, s: ZIPF_S };
    let variants = [("uniform", uniform), ("zipf11", zipf)];

    let mut results: Vec<(String, f64)> = Vec::new();
    let cell = |results: &mut Vec<(String, f64)>, name: String, ns: f64| {
        eprintln!("{name:>32}: {ns:10.1} ns/op");
        results.push((name, ns));
    };

    // Threads × segments matrix (t1s1 is the uncontended row). Both
    // distributions are interleaved within each cell so background-load
    // drift cannot masquerade as a skew effect.
    let mut shapes: Vec<(usize, usize)> = vec![(1, 1)];
    for &t in &threads {
        shapes.push((t, 1));
        shapes.push((t, t));
    }
    for (t, segments) in shapes {
        // Warmup splits across threads, but the timed pairs stay
        // per-thread: every thread's timed section must span several
        // scheduler quanta, or a time-sliced host can fit a whole section
        // into one undisturbed slice and report solo speed for a
        // supposedly contended cell.
        let t_warmup = (warmup / t as u64).max(1);
        let t_pairs = pairs;
        let mut floors = [f64::INFINITY; 2];
        for _ in 0..repeat.max(1) {
            for (floor, (_, dist)) in floors.iter_mut().zip(variants) {
                *floor = floor.min(keyed_round(t, segments, t_warmup, t_pairs, dist));
            }
        }
        for (ns, (dist_name, _)) in floors.into_iter().zip(variants) {
            cell(&mut results, format!("zipf/{dist_name}/t{t}s{segments}"), ns);
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"zipf\",\n");
    json.push_str("  \"unit\": \"ns_per_op\",\n");
    json.push_str("  \"pool\": \"KeyedPool<u64, u64>\",\n");
    json.push_str(&format!("  \"key_space\": {KEY_SPACE},\n"));
    json.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    json.push_str(&format!("  \"warmup_pairs_total\": {warmup},\n"));
    json.push_str(&format!("  \"pairs_per_thread\": {pairs},\n"));
    json.push_str(&format!("  \"repeat\": {repeat},\n"));
    json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    json.push_str(&format!("  \"measured_parallel\": {measured_parallel},\n"));
    json.push_str("  \"results\": {\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.4}{comma}\n"));
    }
    json.push_str("  }\n}\n");

    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &json).expect("write JSON output");
            println!("[wrote {path}]");
        }
        None => print!("{json}"),
    }
}
