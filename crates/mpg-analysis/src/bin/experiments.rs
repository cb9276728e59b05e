//! Experiment driver: reproduces every figure/table of the paper.
//!
//! ```text
//! experiments [--quick] [id ...]
//! ```
//!
//! With no ids, runs all thirteen experiments in paper order and prints
//! their tables. `--quick` shrinks problem sizes (CI mode).

#![forbid(unsafe_code)]

use std::time::Instant;

use mpg_analysis::experiments::{all_experiments, by_id};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let experiments = if ids.is_empty() {
        all_experiments()
    } else {
        ids.iter()
            .map(|id| {
                by_id(id).unwrap_or_else(|| {
                    eprintln!("unknown experiment '{id}'; known: e1..e13");
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let total = Instant::now();
    for e in experiments {
        let t0 = Instant::now();
        let result = e.run(quick);
        println!("{}", result.render());
        println!("[{} completed in {:.2?}]\n", e.id(), t0.elapsed());
    }
    println!("all done in {:.2?}", total.elapsed());
}
