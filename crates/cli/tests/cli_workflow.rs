//! Black-box test of the `gogreen` binary: the full generate → mine →
//! compress → recycle → verify workflow through the real CLI surface.

use gogreen_util::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_gogreen")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gogreen-cli-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin()).args(args).output().expect("spawn gogreen")
}

fn run_ok(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "gogreen {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Reads a `--report` run record.
fn read_record(path: &Path) -> Json {
    Json::parse(&std::fs::read_to_string(path).unwrap()).expect("the record is one JSON object")
}

#[test]
fn full_workflow_round_trips() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let fp_hi = dir.join("fp_hi.txt");
    let fp_rec = dir.join("fp_rec.txt");
    let fp_scratch = dir.join("fp_scratch.txt");
    let dbs = db.to_str().unwrap();

    let out = run_ok(&["generate", "pumsb", "--scale", "0.01", "-o", dbs]);
    assert!(out.contains("wrote"), "{out}");

    let out = run_ok(&["stats", dbs]);
    assert!(out.contains("tuples"), "{out}");

    run_ok(&["mine", dbs, "--support", "90%", "-o", fp_hi.to_str().unwrap()]);
    let out = run_ok(&["compress", dbs, "--patterns", fp_hi.to_str().unwrap()]);
    assert!(out.contains("ratio"), "{out}");

    run_ok(&[
        "recycle",
        dbs,
        "--patterns",
        fp_hi.to_str().unwrap(),
        "--support",
        "82%",
        "-o",
        fp_rec.to_str().unwrap(),
    ]);
    run_ok(&["mine", dbs, "--support", "82%", "--algo", "fp", "-o", fp_scratch.to_str().unwrap()]);

    // Recycled output must equal the from-scratch output line for line
    // (the format is canonical).
    let a = std::fs::read_to_string(&fp_rec).unwrap();
    let b = std::fs::read_to_string(&fp_scratch).unwrap();
    assert_eq!(a, b, "recycled vs scratch pattern files differ");
    assert!(a.lines().count() > 10);

    std::fs::remove_dir_all(&dir).ok();
}

/// A file holding every row twice mines, at twice the absolute ξ, to
/// the same patterns with every support doubled, for every family —
/// whether the engine reads each copy (FP-growth, Eclat) or each
/// distinct row once with its multiplicity (raw H-Mine and
/// TreeProjection merge repeats).
#[test]
fn doubled_rows_double_every_support() {
    let dir = tmpdir();
    let (db, doubled) = (dir.join("c4.txt"), dir.join("c4x2.txt"));
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", db.to_str().unwrap()]);
    let text = std::fs::read_to_string(&db).unwrap();
    let twice: String = text.lines().flat_map(|row| [row, "\n", row, "\n"]).collect();
    std::fs::write(&doubled, twice).unwrap();
    let rows = text.lines().filter(|row| !row.trim().is_empty()).count();
    let xi = rows * 85 / 100;
    for algo in ["hmine", "fp", "tp", "vt"] {
        let mine = |input: &Path, xi: usize, tag: &str| {
            let out = dir.join(format!("{algo}-{tag}.txt"));
            let (input, out_s) = (input.to_str().unwrap(), out.to_str().unwrap());
            run_ok(&["mine", input, "--support", &xi.to_string(), "--algo", algo, "-o", out_s]);
            std::fs::read_to_string(out).unwrap()
        };
        let want: Vec<String> = mine(&db, xi, "once")
            .lines()
            .map(|line| {
                let (items, support) = line.rsplit_once(" : ").expect("items : support");
                format!("{items} : {}", 2 * support.parse::<u64>().unwrap())
            })
            .collect();
        assert!(want.len() > 10, "{algo}: {} patterns", want.len());
        let got: Vec<String> = mine(&doubled, 2 * xi, "twice").lines().map(String::from).collect();
        assert_eq!(got, want, "{algo}: doubled rows at doubled ξ");
    }
}

#[test]
fn constrained_mine_restricts_output() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let all = dir.join("all.txt");
    let limited = dir.join("limited.txt");
    run_ok(&["mine", dbs, "--support", "90%", "-o", all.to_str().unwrap()]);
    run_ok(&[
        "mine",
        dbs,
        "--support",
        "90%",
        "--max-length",
        "2",
        "-o",
        limited.to_str().unwrap(),
    ]);
    let all_n = std::fs::read_to_string(&all).unwrap().lines().count();
    let lim = std::fs::read_to_string(&limited).unwrap();
    assert!(lim.lines().count() < all_n);
    for line in lim.lines() {
        let items = line.split(':').next().unwrap().split_whitespace().count();
        assert!(items <= 2, "pattern too long: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_script_drives_repl() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let mut child = Command::new(bin())
        .args(["session", dbs])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    use std::io::Write;
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"support 92%\nrun\nsupport 86%\nrun\ntop 3\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("[Fresh]"), "{text}");
    // The cold 92% round on dense data is split by the two-step planner.
    assert!(text.contains("[Fresh] split at ξ_mid="), "{text}");
    assert!(text.contains("[Recycled]"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    assert!(!run(&["mine"]).status.success());
    assert!(!run(&["mine", "/nonexistent", "--support", "5%"]).status.success());
    assert!(!run(&["frobnicate"]).status.success());
    assert!(run(&["help"]).status.success());
}

/// A `--batch` spec nested past the JSON parser's depth bound — arrays
/// or objects — is a clean one-line error, not a stack overflow.
#[test]
fn batch_spec_nested_too_deep_fails_cleanly() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    std::fs::write(&db, "1 2 3\n1 2\n2 3\n").unwrap();
    let n = 100_000;
    let arrays = "[".repeat(n) + &"]".repeat(n);
    let objects = "{\"queries\":".repeat(n) + "[]" + &"}".repeat(n);
    for (name, spec) in [("arrays", arrays), ("objects", objects)] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, spec).unwrap();
        let out = run(&["mine", db.to_str().unwrap(), "--batch", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("gogreen: ") && err.contains("nesting deeper"), "{name}: {err}");
        assert_eq!(err.lines().count(), 1, "{name}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_and_condensed_filters() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let hi = dir.join("hi.txt");
    let lo = dir.join("lo.txt");
    run_ok(&["mine", dbs, "--support", "92%", "-o", hi.to_str().unwrap()]);
    run_ok(&["mine", dbs, "--support", "88%", "-o", lo.to_str().unwrap()]);
    let out = run_ok(&["diff", lo.to_str().unwrap(), hi.to_str().unwrap()]);
    assert!(out.contains("appeared"), "{out}");
    assert!(out.contains("-0 vanished"), "{out}"); // relaxation only adds

    // Maximal output must be a (strict, here) subset of the full set.
    let maximal = dir.join("max.txt");
    run_ok(&[
        "mine",
        dbs,
        "--support",
        "88%",
        "--filter",
        "maximal",
        "-o",
        maximal.to_str().unwrap(),
    ]);
    let full_n = std::fs::read_to_string(&lo).unwrap().lines().count();
    let max_n = std::fs::read_to_string(&maximal).unwrap().lines().count();
    assert!(max_n > 0 && max_n < full_n, "maximal {max_n} vs full {full_n}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_options_exit_2() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    for retired in [&["--metrics-out", "x"][..], &["--thread", "4"]] {
        let out = run(&[&["mine", dbs, "--support", "90%"][..], retired].concat());
        assert_eq!(out.status.code(), Some(2), "{retired:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown option {}", retired[0])), "{err}");
        assert!(err.contains("--report"), "the error lists the accepted names: {err}");
    }
    assert!(!dir.join("x").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Serial and threaded `mine` runs do the same logical work: every
/// counter and gauge the registry classes as thread-invariant matches.
#[test]
fn mine_report_counters_match_across_thread_counts() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    let records: Vec<Json> = ["1", "2"]
        .iter()
        .map(|threads| {
            let report = dir.join(format!("t{threads}.json"));
            let rs = report.to_str().unwrap();
            run_ok(&["mine", dbs, "--support", "88%", "--threads", threads, "--report", rs]);
            read_record(&report)
        })
        .collect();
    let invariant = |rec: &Json, key: &str| -> Vec<(String, Json)> {
        let Some(Json::Obj(fields)) = rec.get(key) else { panic!("record lacks {key:?}") };
        let names = fields.iter().filter(|(n, _)| gogreen_obs::metrics::is_thread_invariant(n));
        names.cloned().collect()
    };
    for key in ["counters", "maxes"] {
        assert_eq!(invariant(&records[0], key), invariant(&records[1], key), "{key}");
    }
    let arena = records[0].get("counters").and_then(|c| c.get("alloc.projection_bytes"));
    assert!(arena.is_some(), "serial H-Mine runs on its projection arenas");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_report_has_a_profile_and_no_rounds() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let report = dir.join("report.json");
    let dbs = db.to_str().unwrap();
    run_ok(&["generate", "connect4", "--scale", "0.01", "-o", dbs]);
    run_ok(&["mine", dbs, "--support", "90%", "--report", report.to_str().unwrap()]);
    let rec = read_record(&report);
    assert_eq!(rec.get("rounds").and_then(Json::as_arr).map(<[Json]>::len), Some(0));
    let Some(Json::Obj(profile)) = rec.get("profile") else { panic!("no profile object") };
    let (_, node) = profile.iter().find(|(p, _)| p == "mine").expect("a `mine` span");
    assert_eq!(node.get("calls").and_then(Json::as_u64), Some(1));
    assert!(rec.get("counters").and_then(|c| c.get("mine.projected_dbs")).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_report_records_one_entry_per_round() {
    let dir = tmpdir();
    let db = dir.join("db.txt");
    let report = dir.join("report.json");
    std::fs::write(&db, "1 2 3\n1 2\n2 3\n1 3 4\n1 2 3 4\n").unwrap();
    let mut child = Command::new(bin())
        .args(["session", db.to_str().unwrap(), "--report", report.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    use std::io::Write;
    child.stdin.as_mut().unwrap().write_all(b"support 3\nrun\nsupport 2\nrun\nquit\n").unwrap();
    assert!(child.wait().unwrap().success());
    let rec = read_record(&report);
    let rounds = rec.get("rounds").and_then(Json::as_arr).expect("rounds array");
    let labels: Vec<&str> = rounds.iter().filter_map(|r| r.get("label")?.as_str()).collect();
    assert_eq!(labels, ["session.round/1", "session.round/2"]);
    for round in rounds {
        assert!(round.get("counters").is_some() && round.get("hists").is_some(), "{round}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Profile paths of a `--report` record.
fn profile_paths(report: &Path) -> Vec<String> {
    let rec = read_record(report);
    let Some(Json::Obj(profile)) = rec.get("profile") else { panic!("no profile object") };
    profile.iter().map(|(path, _)| path.clone()).collect()
}

#[test]
fn mine_and_recycle_each_profile_one_mine_span() {
    let dir = tmpdir();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (db, fp) = (file("db.txt"), file("fp.txt"));
    run_ok(&["generate", "weather", "--scale", "0.01", "-o", &db]);
    let mine = file("report-mine.json");
    run_ok(&["mine", &db, "--support", "5%", "-o", &fp, "--report", &mine]);
    let recycle = file("report-recycle.json");
    run_ok(&["recycle", &db, "--patterns", &fp, "--support", "4%", "--report", &recycle]);
    for report in [&mine, &recycle] {
        let paths = profile_paths(Path::new(report));
        for want in ["mine;flist", "mine;encode"] {
            assert!(paths.iter().any(|p| p == want), "{report}: no {want} in {paths:?}");
        }
        assert!(!paths.iter().any(|p| p.starts_with("mine;mine")), "{report}: {paths:?}");
    }
    // The pushed-constraint search runs under its own single span.
    let pushed = file("report-pushed.json");
    run_ok(&["mine", &db, "--support", "5%", "--max-length", "2", "--report", &pushed]);
    let paths = profile_paths(Path::new(&pushed));
    assert!(paths.iter().any(|p| p == "mine"), "{paths:?}");
    assert!(!paths.iter().any(|p| p.starts_with("mine;mine")), "{paths:?}");
    std::fs::remove_dir_all(&dir).ok();
}
