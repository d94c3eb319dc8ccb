//! `gogreen session <db.txt>` — an interactive mining session driven by
//! a tiny REPL; the paper's iterative-refinement workflow, live.
//!
//! Commands (one per line on stdin):
//!
//! ```text
//! support <ξ>        set the minimum support (e.g. `support 2%`)
//! maxlen <K>         limit pattern length (0 clears)
//! run                mine under the current constraints; a cold run
//!                    the planner splits in two prints `split at ξ_mid=…`
//! top [N]            show the N (default 10) best patterns of the last run
//! save <file>        write the last result as `items : support` lines
//! engine <name>      hmine | fp | tp | vt
//! quit               exit
//! ```

use crate::args::parse_support;
use crate::commands::{load_db, parse_threads, setup_obs};
use gogreen_constraints::{Constraint, ConstraintSet};
use gogreen_core::session::MiningSession;
use gogreen_data::{MinSupport, PatternSet};
use gogreen_miners::Family;
use gogreen_util::pool::Parallelism;
use std::io::BufRead;

pub fn run(argv: Vec<String>) -> Result<(), String> {
    let (args, obs) = setup_obs(argv, &["threads"])?;
    let path = args.positional(0, "database path")?;
    let db = load_db(path)?;
    let par = parse_threads(args.opt("threads"))?;
    println!(
        "session on {path} ({} tuples); `run` mines, `quit` exits, see docs for more",
        db.len()
    );
    let stdin = std::io::stdin();
    drive_with(db, par, stdin.lock())?;
    obs.finish()
}

/// The REPL body, separated from stdin for testability; `par` is the
/// thread budget for the recycling phases.
pub fn drive_with(
    db: gogreen_data::TransactionDb,
    par: Parallelism,
    input: impl BufRead,
) -> Result<(), String> {
    let mut session = MiningSession::new(db).with_parallelism(par);
    let mut support = MinSupport::percent(5.0);
    let mut maxlen: usize = 0;
    let mut last: Option<PatternSet> = None;
    for line in input.lines() {
        let line = line.map_err(|e| format!("reading input: {e}"))?;
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { continue };
        let arg = parts.next();
        match cmd {
            "support" => {
                support = parse_support(arg.ok_or("support expects a value")?)?;
                println!("support = {support}");
            }
            "maxlen" => {
                maxlen = arg
                    .ok_or("maxlen expects a number")?
                    .parse()
                    .map_err(|_| "invalid maxlen".to_owned())?;
                println!(
                    "maxlen = {}",
                    if maxlen == 0 { "off".into() } else { maxlen.to_string() }
                );
            }
            "engine" => {
                let name = arg.ok_or("engine expects a name")?;
                let family = Family::from_key(name)
                    .ok_or_else(|| format!("unknown engine {name:?} ({})", Family::keys()))?;
                session = MiningSession::new(session.db().clone())
                    .with_engine(family)
                    .with_parallelism(par);
                println!("engine set (session reset)");
            }
            "run" => {
                let mut cs = ConstraintSet::support_only(support);
                if maxlen > 0 {
                    cs = cs.with(Constraint::MaxLength(maxlen));
                }
                let (result, report) = session.run_with_report(cs);
                let split =
                    report.xi_mid.map(|m| format!(" split at ξ_mid={m}")).unwrap_or_default();
                println!(
                    "{} patterns in {:.2?} [{:?}]{split}",
                    result.len(),
                    report.mining_time,
                    report.mode
                );
                last = Some(result);
            }
            "top" => {
                let n: usize = match arg {
                    None => 10,
                    Some(a) => a.parse().map_err(|_| format!("invalid top count {a:?}"))?,
                };
                match &last {
                    None => println!("nothing mined yet (use `run`)"),
                    Some(set) => {
                        let mut v = set.sorted();
                        v.sort_by(|a, b| b.support().cmp(&a.support()).then(b.len().cmp(&a.len())));
                        for p in v.iter().take(n) {
                            println!("  {p}");
                        }
                    }
                }
            }
            "save" => match (&last, arg) {
                (Some(set), Some(file)) => {
                    gogreen_data::pattern_io::write_patterns_file(set, file)
                        .map_err(|e| format!("writing {file}: {e}"))?;
                    println!("wrote {file} ({} patterns)", set.len());
                }
                (None, _) => println!("nothing mined yet (use `run`)"),
                (_, None) => println!("save expects a file name"),
            },
            "quit" | "exit" => break,
            other => println!("unknown command {other:?}"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gogreen_data::TransactionDb;

    #[test]
    fn scripted_session_runs() {
        let script = "support 3\nrun\nsupport 2\nmaxlen 2\nrun\ntop 3\nquit\n";
        drive_with(TransactionDb::paper_example(), Parallelism::serial(), script.as_bytes())
            .unwrap();
    }

    #[test]
    fn bad_support_is_an_error() {
        let script = "support nope\n";
        assert!(drive_with(
            TransactionDb::paper_example(),
            Parallelism::serial(),
            script.as_bytes()
        )
        .is_err());
    }

    #[test]
    fn threaded_session_runs_and_survives_engine_reset() {
        let script = "support 2\nrun\nengine fp\nrun\nengine vt\nrun\nengine tp\nrun\nquit\n";
        drive_with(TransactionDb::paper_example(), Parallelism::threads(3), script.as_bytes())
            .unwrap();
    }

    #[test]
    fn bad_top_count_is_an_error() {
        let script = "support 3\nrun\ntop ten\n";
        let err =
            drive_with(TransactionDb::paper_example(), Parallelism::serial(), script.as_bytes())
                .unwrap_err();
        assert!(err.contains("invalid top count"), "{err}");
    }

    #[test]
    fn unknown_commands_are_tolerated() {
        let script = "frobnicate\nquit\n";
        drive_with(TransactionDb::paper_example(), Parallelism::serial(), script.as_bytes())
            .unwrap();
    }
}
