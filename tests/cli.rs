//! End-to-end tests for the `titalc` binary, in particular `titalc lint`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn titalc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_titalc"))
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn lint_rejects_broken_machine_description() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("broken.machine"))
        .output()
        .expect("spawn titalc");
    assert!(!output.status.success(), "broken.machine must fail lint");
    let text = stdout(&output);
    for code in [
        "zero-issue-width",
        "zero-latency",
        "zero-multiplicity",
        "doubly-covered-class",
        "uncovered-class",
    ] {
        assert!(text.contains(code), "missing `{code}` in:\n{text}");
    }
}

#[test]
fn lint_rejects_broken_program() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("broken.s"))
        .output()
        .expect("spawn titalc");
    assert!(!output.status.success(), "broken.s must fail lint");
    let text = stdout(&output);
    for code in [
        "dangling-label",
        "unknown-call-target",
        "falls-off-end",
        "def-before-use",
    ] {
        assert!(text.contains(code), "missing `{code}` in:\n{text}");
    }
}

#[test]
fn lint_accepts_clean_program() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("clean.s"))
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "clean.s must pass lint: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout(&output).is_empty(), "no diagnostics expected");
}

#[test]
fn compile_with_verify_succeeds() {
    let dir = std::env::temp_dir().join("titalc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("ok.tital");
    std::fs::write(
        &source,
        "global var x;\nfn main() -> int { x = 3; return x * 2 + 1; }\n",
    )
    .unwrap();
    let output = titalc()
        .arg("--verify")
        .arg("-m")
        .arg("superscalar:4")
        .arg(&source)
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "--verify compile failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn lint_flags_dead_store_fixture() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("deadstore.tital"))
        .output()
        .expect("spawn titalc");
    // Dead stores are warnings: reported, but not a failing exit.
    assert!(output.status.success(), "warnings must not fail lint");
    let text = stdout(&output);
    assert!(
        text.contains("dead-store"),
        "missing dead-store in:\n{text}"
    );
    assert!(text.contains("`x`"), "names the variable:\n{text}");
}

#[test]
fn lint_rejects_out_of_bounds_fixture() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("oob.tital"))
        .output()
        .expect("spawn titalc");
    assert!(!output.status.success(), "provable OOB accesses are errors");
    let text = stdout(&output);
    for code in ["oob-store", "oob-load"] {
        assert!(text.contains(code), "missing `{code}` in:\n{text}");
    }
}

#[test]
fn lint_flags_constant_branch_fixture() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("constbranch.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success(), "constant branches are warnings");
    let text = stdout(&output);
    assert!(
        text.contains("const-branch") && text.contains("always true"),
        "missing const-branch in:\n{text}"
    );
}

#[test]
fn analyze_dumps_dataflow_facts() {
    let output = titalc()
        .arg("analyze")
        .arg(fixture("constbranch.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success(), "analyze exits zero without errors");
    let text = stdout(&output);
    for needle in ["fn main:", "bb0:", "const:", "branch: always true"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn analyze_fails_on_lint_errors() {
    let output = titalc()
        .arg("analyze")
        .arg(fixture("oob.tital"))
        .output()
        .expect("spawn titalc");
    assert!(!output.status.success(), "oob errors fail analyze too");
}

#[test]
fn conservative_oracle_compiles_and_runs() {
    let dir = std::env::temp_dir().join("titalc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("oracle.tital");
    std::fs::write(
        &source,
        "global arr a[4];\nfn main() -> int { a[0] = 2; a[1] = 3; return a[0] * a[1]; }\n",
    )
    .unwrap();
    for oracle in ["conservative", "symbolic"] {
        let output = titalc()
            .arg("--verify")
            .arg("--oracle")
            .arg(oracle)
            .arg(&source)
            .output()
            .expect("spawn titalc");
        assert!(
            output.status.success(),
            "--oracle {oracle} failed: {}{}",
            stdout(&output),
            String::from_utf8_lossy(&output.stderr)
        );
    }
}

// ---------------------------------------------------------------------------
// titalc profile
// ---------------------------------------------------------------------------

/// Pins every varying field of a profile report: `wall_ns` values (timing)
/// are zeroed and the `source` path (absolute under the test harness) is
/// replaced with the repo-relative fixture path. Everything else in the
/// document is deterministic and must match the golden byte for byte.
fn normalize_profile(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if let Some(pos) = line.find("\"wall_ns\": ") {
            let head = &line[..pos + "\"wall_ns\": ".len()];
            let rest = &line[pos + "\"wall_ns\": ".len()..];
            let tail = rest.trim_start_matches(|c: char| c.is_ascii_digit());
            out.push_str(head);
            out.push('0');
            out.push_str(tail);
        } else if line.trim_start().starts_with("\"source\": ") {
            let indent: String = line.chars().take_while(|c| c.is_whitespace()).collect();
            out.push_str(&indent);
            out.push_str("\"source\": \"tests/fixtures/profile.tital\",");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn profile_json_matches_golden() {
    // --verify pins the phase list: without it the list would differ
    // between debug (verify on) and release (verify off) test builds.
    let output = titalc()
        .args(["profile", "--json", "--verify", "-m", "multititan"])
        .arg(fixture("profile.tital"))
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "profile --json failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    let golden = std::fs::read_to_string(fixture("profile.json")).expect("golden exists");
    let got = normalize_profile(&stdout(&output));
    assert_eq!(
        got, golden,
        "profile --json drifted from tests/fixtures/profile.json; \
         if the schema change is intentional, regenerate the golden"
    );
}

#[test]
fn profile_tables_report_the_cycle_account() {
    let output = titalc()
        .args(["profile", "-m", "superscalar:4"])
        .arg(fixture("profile.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success());
    let text = stdout(&output);
    for needle in [
        "compile phases:",
        "cycle account:",
        "class mix:",
        "schedule",
        "rate:",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn run_reports_merged_class_and_account_table() {
    let output = titalc()
        .args(["-m", "cray1"])
        .arg(fixture("profile.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success());
    let text = stdout(&output);
    for needle in ["cycle account:", "class mix:", "wait cycles", "issue"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn run_cache_adds_one_cache_line_to_the_run_report() {
    let run = |extra: &[&str]| {
        let output = titalc()
            .args(["-m", "cray1"])
            .args(extra)
            .arg(fixture("profile.tital"))
            .output()
            .expect("spawn titalc");
        assert!(output.status.success(), "run {extra:?} failed");
        stdout(&output)
    };
    let plain = run(&[]);
    let cached = run(&["--cache"]);
    let extra = cached
        .strip_prefix(plain.as_str())
        .unwrap_or_else(|| panic!("`run --cache` changed the run report:\n{cached}"));
    assert_eq!(extra.lines().count(), 1, "extra output:\n{extra}");
    assert!(
        extra.starts_with("caches (8KiB):  I-miss "),
        "extra output:\n{extra}"
    );
}

// ---------------------------------------------------------------------------
// titalc analyze --loops and titalc bound
// ---------------------------------------------------------------------------

#[test]
fn analyze_loops_reports_forest_and_scev() {
    let output = titalc()
        .args(["analyze", "--loops"])
        .arg(fixture("loop_carried2.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success(), "analyze --loops exits zero");
    let text = stdout(&output);
    for needle in [
        "loop forest:",
        "fn main:",
        "iv i step +1",
        "write fib[i+2 ; +1/iter]",
        "flow < distance 1",
        "flow < distance 2",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn analyze_loops_proves_strided_accesses_independent() {
    let output = titalc()
        .args(["analyze", "--loops"])
        .arg(fixture("loop_strided.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("+2/iter"), "stride 2 classified:\n{text}");
    assert!(
        !text.contains("dep "),
        "stride-2 read/write at odd/even offsets must be proven independent:\n{text}"
    );
}

#[test]
fn analyze_loops_nests_the_triangular_loop() {
    let output = titalc()
        .args(["analyze", "--loops"])
        .arg(fixture("loop_triangular.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success());
    let text = stdout(&output);
    assert!(text.contains("depth 2"), "inner loop nests:\n{text}");
    assert!(text.contains("iv j step +1"), "inner induction:\n{text}");
}

/// Pins the `supersym.loops/v1` schema: only the `source` path (absolute
/// under the test harness) varies, so it is rewritten to the repo-relative
/// fixture path and everything else must match the golden byte for byte.
fn normalize_loops(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.trim_start().starts_with("\"source\": ") {
            let indent: String = line.chars().take_while(|c| c.is_whitespace()).collect();
            out.push_str(&indent);
            out.push_str("\"source\": \"tests/fixtures/loop_carried2.tital\",");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn analyze_loops_json_matches_golden() {
    let output = titalc()
        .args(["analyze", "--loops", "--json"])
        .arg(fixture("loop_carried2.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success());
    let golden = std::fs::read_to_string(fixture("loops.json")).expect("golden exists");
    let got = normalize_loops(&stdout(&output));
    assert_eq!(
        got, golden,
        "analyze --loops --json drifted from tests/fixtures/loops.json; \
         if the schema change is intentional, regenerate the golden"
    );
}

#[test]
fn bound_reports_loops_and_soundness() {
    let output = titalc()
        .args(["bound", "-m", "superscalar:2"])
        .arg(fixture("loop_carried1.tital"))
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "bound failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = stdout(&output);
    for needle in [
        "innermost machine loop",
        "rec-ii",
        "bound:",
        "measured:",
        "sound:          true",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn bound_json_single_file_is_sound() {
    let output = titalc()
        .args(["bound", "--json"])
        .arg(fixture("loop_unit.tital"))
        .output()
        .expect("spawn titalc");
    assert!(output.status.success());
    let text = stdout(&output);
    for needle in [
        "\"schema\": \"supersym.bound/v1\"",
        "\"lower_bound_cycles\"",
        "\"rec_min_ii\"",
        "\"res_min_ii\"",
        "\"measured_ilp\"",
        "\"sound\": true",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn bound_suite_sweeps_one_preset() {
    let output = titalc()
        .args(["bound", "-m", "superscalar:2", "--json"])
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "suite bound failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = stdout(&output);
    for benchmark in [
        "ccom",
        "grr",
        "linpack",
        "livermore",
        "met",
        "stan",
        "whet",
        "yacc",
    ] {
        assert!(
            text.contains(&format!("\"benchmark\": \"{benchmark}\"")),
            "missing `{benchmark}` in:\n{text}"
        );
    }
    assert!(
        !text.contains("\"sound\": false"),
        "an unsound cell:\n{text}"
    );
}

/// The suite sweep compiles with the same options as a single FILE:
/// `--unroll` changes the programs it measures, and the bound stays sound.
#[test]
fn bound_suite_honours_unroll() {
    let suite = |extra: &[&str]| {
        let output = titalc()
            .args(["bound", "-m", "superscalar:2", "--json"])
            .args(extra)
            .output()
            .expect("spawn titalc");
        assert!(
            output.status.success(),
            "suite bound {extra:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout(&output)
    };
    let unrolled = suite(&["--unroll", "careful:4", "--verify"]);
    assert_ne!(suite(&[]), unrolled, "--unroll changed nothing");
    assert!(
        !unrolled.contains("\"sound\": false"),
        "an unsound cell:\n{unrolled}"
    );
}

#[test]
fn bound_rejects_unknown_machine() {
    let output = titalc()
        .args(["bound", "-m", "quantum"])
        .output()
        .expect("spawn titalc");
    assert_eq!(
        output.status.code().expect("exit code"),
        1,
        "unknown preset is a usage error"
    );
}

/// A `-m` degree outside the ranges `sweep --grid` takes (issue width
/// 1..=64, pipe degree 1..=16), or an `--unroll` factor outside 1..=16, is
/// a usage error naming its flag, never a panic in a preset constructor, a
/// huge allocation or a compile that does not finish.
#[test]
fn machine_degrees_out_of_range_are_usage_errors() {
    let program = fixture("profile.tital");
    let program = program.to_str().unwrap();
    let rows: [(&str, &[&str]); 21] = [
        ("--machine", &["-m", "superscalar:0", program]),
        ("--machine", &["-m", "superpipelined:0", program]),
        ("--machine", &["-m", "vliw:0", program]),
        ("--machine", &["-m", "ssp:0:2", program]),
        ("--machine", &["-m", "ssp:2:0", program]),
        ("--machine", &["-m", "conflicts:0", program]),
        ("--machine", &["-m", "superscalar:4294967295", program]),
        ("--machine", &["-m", "vliw:4294967295", program]),
        ("--machine", &["-m", "superscalar:65", program]),
        ("--machine", &["-m", "ssp:1:17", program]),
        (
            "--machine",
            &["profile", "-m", "superpipelined:17", program],
        ),
        ("--machine", &["certify", "-m", "conflicts:65", program]),
        ("--machine", &["bound", "-m", "superscalar:0"]),
        ("--unroll", &["--unroll", "careful:0", program]),
        ("--unroll", &["--unroll", "naive:0", program]),
        ("--unroll", &["--unroll", "careful:17", program]),
        ("--unroll", &["--unroll", "careful:100000", program]),
        ("--unroll", &["bound", "--unroll", "careful:100000"]),
        ("--jobs", &["sweep", "--grid", "issue=1", "--jobs", "0"]),
        ("--jobs", &["sweep", "--grid", "issue=1", "--jobs", "257"]),
        (
            "--jobs",
            &["sweep", "--grid", "issue=1", "--jobs", "100000"],
        ),
    ];
    for (flag, argv) in rows {
        let output = titalc().args(argv).output().expect("spawn titalc");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(exit_code(&output), 1, "{argv:?}: {stderr}");
        assert!(stderr.contains(flag), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
    // The ends of the unroll range stay valid.
    for factor in ["careful:1", "careful:16"] {
        let output = titalc()
            .args(["--unroll", factor, program])
            .output()
            .expect("spawn titalc");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(exit_code(&output), 0, "{factor}: {stderr}");
    }
}

// ---------------------------------------------------------------------------
// Exit codes: 0 ok / 1 usage / 2 front end / 3 static checks / 4 runtime
// ---------------------------------------------------------------------------

fn corpus(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/corpus")
        .join(name)
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("titalc terminated by signal")
}

#[test]
fn closed_stdout_exits_4_without_panicking() {
    // The reader takes the first line and goes away while the second
    // experiment still computes, so titalc's next write fails after the
    // reader is gone: that must end the run with exit 4, not a panic.
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = titalc()
        .args([
            "reproduce",
            "--small",
            "--only",
            "fig1_1",
            "--only",
            "vector_equivalence",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn titalc");
    let mut first = String::new();
    {
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        stdout.read_line(&mut first).expect("read the first line");
    }
    let output = child.wait_with_output().expect("wait for titalc");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(first.starts_with("Figure 1-1"), "{first}");
    assert_eq!(exit_code(&output), 4, "{stderr}");
    assert!(stderr.contains("stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn help_documents_exit_codes() {
    let output = titalc().arg("--help").output().expect("spawn titalc");
    assert_eq!(exit_code(&output), 0, "--help is not an error");
    let text = stdout(&output);
    assert!(
        text.contains("EXIT CODES"),
        "no EXIT CODES section on stdout:\n{text}"
    );
    for needle in [
        "front end",
        "torture findings",
        "simulation (runtime) error",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in help:\n{text}");
    }
    // Every command answers --help the same way.
    for command in [
        "lint",
        "analyze",
        "certify",
        "profile",
        "stats",
        "bound",
        "sweep",
        "torture",
        "synth",
        "reproduce",
    ] {
        let output = titalc()
            .args([command, "--help"])
            .output()
            .expect("spawn titalc");
        assert_eq!(exit_code(&output), 0, "{command} --help");
        assert_eq!(stdout(&output), text, "{command} --help");
    }
}

#[test]
fn usage_errors_exit_1() {
    let output = titalc()
        .arg("--no-such-flag")
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 1);
    let output = titalc()
        .arg("/nonexistent/missing.tital")
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 1, "unreadable file is an I/O error");
}

#[test]
fn parse_errors_exit_2() {
    let dir = std::env::temp_dir().join("titalc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("syntax-error.tital");
    std::fs::write(&source, "fn main( { return 1; }\n").unwrap();
    let output = titalc().arg(&source).output().expect("spawn titalc");
    assert_eq!(exit_code(&output), 2, "compile of a syntax error");
    let output = titalc()
        .arg("lint")
        .arg(&source)
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 2, "lint of a syntax error");
}

#[test]
fn static_check_errors_exit_3() {
    let output = titalc()
        .arg("lint")
        .arg(fixture("broken.machine"))
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 3, "machine lint errors");
    let output = titalc()
        .arg("lint")
        .arg(fixture("broken.s"))
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 3, "program lint errors");
    let output = titalc()
        .arg("lint")
        .arg(fixture("oob.tital"))
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 3, "dataflow lint errors");
}

#[test]
fn runtime_errors_exit_4() {
    let output = titalc()
        .arg(corpus("seed-runtime-trap.tital"))
        .output()
        .expect("spawn titalc");
    assert_eq!(
        exit_code(&output),
        4,
        "runaway recursion is a runtime error: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn torture_smoke_campaign_exits_0() {
    let output = titalc()
        .args(["torture", "--seed", "9", "--iters", "25"])
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "smoke campaign found something: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = stdout(&output);
    assert!(text.contains("0 finding(s)"), "report missing:\n{text}");
    for layer in ["source", "ast", "asm", "machine"] {
        assert!(text.contains(layer), "layer `{layer}` missing:\n{text}");
    }
}

#[test]
fn torture_replays_the_corpus() {
    let output = titalc()
        .args(["torture", "--replay"])
        .arg(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../tests/corpus")
                .as_os_str(),
        )
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "corpus replay regressed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout(&output).contains("corpus replay:"),
        "replay summary missing:\n{}",
        stdout(&output)
    );
}

#[test]
fn torture_rejects_bad_flags() {
    let output = titalc()
        .args(["torture", "--layer", "quantum"])
        .output()
        .expect("spawn titalc");
    assert_eq!(exit_code(&output), 1);
}

#[test]
fn certify_reports_per_pass_certificates() {
    let dir = std::env::temp_dir().join("titalc-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("certify-demo.tital");
    std::fs::write(
        &source,
        "global arr data[32];\n\
         fn main() -> int {\n\
             var sum = 0;\n\
             for (i = 0; i < 32; i = i + 1) { data[i] = i * 2 + 1; }\n\
             for (i = 0; i < 32; i = i + 1) { sum = sum + data[i]; }\n\
             return sum;\n\
         }\n",
    )
    .unwrap();
    let output = titalc()
        .arg("certify")
        .arg("-m")
        .arg("multititan")
        .arg("--unroll")
        .arg("careful:2")
        .arg(&source)
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "certify failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = stdout(&output);
    for needle in ["translation validation:", "structural", "certified:"] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
    assert!(
        !text.contains("inconclusive"),
        "a real compile must never be inconclusive:\n{text}"
    );
}

/// Full-depth synthesis is release-speed; debug runs skip it the same way
/// the rules crate's own determinism test does. CI runs the release
/// binary's `titalc synth --check`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full-depth synthesis is release-speed; CI runs `titalc synth --check` in release"
)]
fn synth_check_accepts_the_shipped_table() {
    let output = titalc()
        .arg("synth")
        .arg("--check")
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "synth --check failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout(&output).contains("byte-identical"));
}

#[test]
fn stats_json_matches_golden() {
    // --verify pins the phase list, exactly as in the profile golden.
    let output = titalc()
        .args(["stats", "--verify", "-m", "multititan"])
        .arg(fixture("profile.tital"))
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "stats failed: {}{}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    let golden = std::fs::read_to_string(fixture("stats.json")).expect("golden exists");
    // Same varying fields as a profile document: wall times and the
    // absolute source path.
    let got = normalize_profile(&stdout(&output));
    assert_eq!(
        got, golden,
        "stats drifted from tests/fixtures/stats.json; \
         if the schema change is intentional, regenerate the golden"
    );
}

#[test]
fn profile_timeline_passes_the_validator() {
    let dir = std::env::temp_dir().join(format!("titalc-timeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let timeline = dir.join("profile-timeline.json");
    let output = titalc()
        .args(["profile", "--timeline"])
        .arg(&timeline)
        .args(["-m", "superscalar:4"])
        .arg(fixture("profile.tital"))
        .output()
        .expect("spawn titalc");
    assert!(
        output.status.success(),
        "profile --timeline failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lint = titalc()
        .arg("lint")
        .arg(&timeline)
        .output()
        .expect("spawn titalc");
    assert!(
        lint.status.success(),
        "emitted timeline failed validation: {}{}",
        stdout(&lint),
        String::from_utf8_lossy(&lint.stderr)
    );
    assert!(
        stdout(&lint).contains("valid timeline"),
        "{}",
        stdout(&lint)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_classifies_timeline_failures() {
    let dir = std::env::temp_dir().join(format!("titalc-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Unparseable JSON is a front-end failure: exit 2.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "this is not json").unwrap();
    let output = titalc()
        .arg("lint")
        .arg(&garbage)
        .output()
        .expect("spawn titalc");
    assert_eq!(output.status.code(), Some(2), "{}", stdout(&output));

    // Well-formed JSON violating a trace_event invariant (time going
    // backwards on one lane) is a static-check failure: exit 3.
    let invalid = dir.join("backwards.json");
    std::fs::write(
        &invalid,
        r#"{"schema":"supersym.timeline/v1","traceEvents":[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"compile"}},
            {"ph":"X","pid":1,"tid":1,"ts":10,"dur":5,"name":"a"},
            {"ph":"X","pid":1,"tid":1,"ts":3,"dur":2,"name":"b"}]}"#,
    )
    .unwrap();
    let output = titalc()
        .arg("lint")
        .arg(&invalid)
        .output()
        .expect("spawn titalc");
    assert_eq!(output.status.code(), Some(3), "{}", stdout(&output));
    let diagnostic = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        diagnostic.contains("went backwards"),
        "diagnostic should name the violated invariant: {diagnostic}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The size-independent experiments are cheap even in a debug build: each
/// `reproduce --only NAME` block must appear, byte for byte, in the
/// committed standard-size reproduction.
#[test]
fn reproduce_matches_the_committed_artifact() {
    let artifact =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/reproduction_standard.txt");
    let artifact = std::fs::read_to_string(artifact).expect("read the committed reproduction");
    for name in [
        "fig1_1",
        "fig2_diagrams",
        "fig4_2",
        "fig4_3",
        "fig4_7",
        "sec5_1",
        "vector_equivalence",
    ] {
        let output = titalc()
            .args(["reproduce", "--only", name])
            .output()
            .expect("spawn titalc");
        assert_eq!(exit_code(&output), 0, "{name}");
        let block = stdout(&output);
        assert!(
            block.len() > 1 && artifact.contains(&block),
            "`reproduce --only {name}` is not in docs/reproduction_standard.txt:\n{block}"
        );
    }
    let output = titalc()
        .args(["reproduce", "--only", "no_such_study"])
        .output()
        .expect("spawn titalc");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(exit_code(&output), 1, "{stderr}");
    assert!(stderr.contains("no_such_study"), "{stderr}");
    assert!(
        stderr.contains("fig4_1"),
        "valid names are listed: {stderr}"
    );
}

/// Each command takes only the flags it uses and at most its FILEs: a
/// flag it would ignore, or a FILE too many, is a usage error (exit 1)
/// that names the offending argument and writes nothing.
#[test]
fn commands_reject_flags_they_do_not_use() {
    let dir = std::env::temp_dir().join(format!("titalc-unused-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("out.json");
    let out = out.to_str().unwrap();
    let program = fixture("profile.tital");
    let program = program.to_str().unwrap();
    let second = fixture("loop_unit.tital");
    let second = second.to_str().unwrap();
    let clean = fixture("clean.s");
    let clean = clean.to_str().unwrap();
    let rows: [(&[&str], &str); 8] = [
        (&["--timeline", out, program], "--timeline"),
        (&["stats", "--timeline", out, program], "--timeline"),
        (&["certify", "--timeline", out, program], "--timeline"),
        (&["analyze", "-m", "bogus", program], "-m"),
        (&["profile", "--cache", program], "--cache"),
        (&["lint", "--dump", "--cache", clean], "--dump"),
        (&[program, second], second),
        (&["reproduce", "small"], "small"),
    ];
    for (argv, offender) in rows {
        let output = titalc().args(argv).output().expect("spawn titalc");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(exit_code(&output), 1, "{argv:?}: {stderr}");
        assert!(
            stderr.contains(offender),
            "{argv:?} must name `{offender}`: {stderr}"
        );
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "{argv:?} wrote a file"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
