//! `gogreen` — the command-line face of the pattern-recycling miner.
//!
//! ```text
//! gogreen stats    <db.txt>
//! gogreen generate <weather|forest|connect4|pumsb> [--scale S] -o <db.txt>
//! gogreen mine     <db.txt> --support <ξ> [--algo A] [--max-length K]
//!                  [--items 1,2,3] [--threads N] [-o patterns.txt]
//! gogreen mine     <db.txt> --batch <spec.json> [--algo A] [--threads N]
//! gogreen compress <db.txt> --patterns <fp.txt> [--strategy mcp|mlp]
//!                  [--threads N]
//! gogreen recycle  <db.txt> --patterns <fp.txt> --support <ξ>
//!                  [--algo A] [--strategy mcp|mlp] [--threads N]
//!                  [-o patterns.txt]
//! gogreen session  <db.txt> [--threads N]   # interactive REPL (stdin)
//! ```
//!
//! Supports are `5%` (relative) or `120` (absolute tuples). See
//! `gogreen help` for everything.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    // Dying quietly on a closed pipe (`gogreen … | head`) is correct CLI
    // behaviour; Rust's default is a noisy panic from `println!`.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe =
            info.payload().downcast_ref::<String>().is_some_and(|m| m.contains("Broken pipe"));
        if broken_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest.to_vec()),
        None => {
            print_usage();
            return ExitCode::from(2);
        }
    };
    let result = match command {
        "stats" => commands::stats::run(rest),
        "generate" => commands::generate::run(rest),
        "mine" => commands::mine::run(rest),
        "compress" => commands::compress::run(rest),
        "compact" => commands::compact::run(rest),
        "diff" => commands::diff::run(rest),
        "recycle" => commands::recycle::run(rest),
        "session" => commands::session::run(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(())
        }
        other => Err(format!("unknown command {other:?} (try `gogreen help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            gogreen_obs::error(&format!("gogreen: {msg}"));
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "\
gogreen — recycle and reuse frequent patterns (ICDE 2004)

USAGE
  gogreen stats    <db.txt>
  gogreen generate <weather|forest|connect4|pumsb> [--scale S] -o <db.txt>
                   [--db-dir DIR] [--segment-bytes B]
  gogreen mine     <db.txt> --support <ξ> [--algo {mine_algos}]
                   [--max-length K] [--items 1,2,3] [--filter closed|maximal]
                   [--threads N] [-o patterns.txt]
  gogreen mine     <db.txt> --batch <spec.json> [--algo A] [--threads N]
                   [-o prefix]   # one pass answers every query in the spec
  gogreen compress <db.txt> --patterns <fp.txt> [--strategy mcp|mlp]
                   [--threads N]
  gogreen compact  <db-dir> [--segment-bytes B]
  gogreen recycle  <db.txt> --patterns <fp.txt> --support <ξ>
                   [--algo {recycle_algos}] [--strategy mcp|mlp] [--threads N]
                   [-o patterns.txt]
  gogreen diff     <new.txt> <old.txt> [--limit N]
  gogreen session  <db.txt> [--threads N]

OUT-OF-CORE (mine | compress)
  --db-dir <dir>   mine/compress an on-disk segment store (written by
                   `generate --db-dir`) instead of a text database: one
                   pass per segment, output byte-identical to in-memory
  --budget <B>     cap resident segment bytes (e.g. 8MiB); errors if any
                   single segment exceeds it
  byte counts accept 4096, 64k, 8MiB, 1g

BATCH (mine)
  --batch <spec.json>  coalesce k (ξ, constraint) queries into ONE mining
                   pass at ξ_min, demultiplexed so each query's stream is
                   byte-identical to running it alone. The spec is a JSON
                   array (or {{\"queries\": [...]}}) of objects with
                   \"support\" (\"3%\" or absolute), optional \"label\",
                   \"max-length\", and \"items\" [1,2,3]. With -o PREFIX
                   each query writes PREFIX.<label>.txt

FORMATS
  databases: one transaction per line, whitespace-separated item ids
  patterns:  `items : support` per line (what `mine -o` writes)
  supports:  `5%` (fraction of tuples) or `120` (absolute tuple count)
  threads:   worker threads for compression and recycled mining
             (default 1 = the paper's serial timings; 0 = all cores;
             output is identical at any thread count)

OBSERVABILITY (mine | compress | recycle | session)
  --report <file>     write the run record, one JSON object: argv,
                      counters, maxes and histograms (names outside
                      `cover.*` are bit-identical at any --threads), the
                      self-time profile per stack path and one snapshot
                      per session round; print its tables to stderr
  --trace-out <file>  write hierarchical phase spans as JSON lines

The recycle command is the paper's two-phase pipeline: compress <db>
with the recycled <fp.txt>, then mine the compressed database — exact,
and usually much faster than mining from scratch.",
        mine_algos = commands::mine_algos(),
        recycle_algos = commands::recycle_algos(),
    );
}
