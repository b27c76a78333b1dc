//! Byte-identical runs of the shipped ID-literal programs.
//!
//! Every case drives the real `idlog` binary (`run`, and `optimize` for the
//! rewritten `all_depts`) and compares its stdout — the answers plus the
//! `--profile-json` counters — against one golden file. The facts cover the
//! shipped company database and two generated, skewed `emp` relations (one
//! with symbol departments, one with integer departments) whose names are
//! interned in reverse name order, so grouping and canonical tid order are
//! exercised where interning order and name order disagree. Canonical and
//! seeded oracles and `--all` enumeration run.
//!
//! Regenerate the golden file after an intentional output change with
//! `UPDATE_GOLDEN=1 cargo test -p idlog-cli --test idrel_golden`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_path(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
        .to_string_lossy()
        .into_owned()
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/idrel_runs.expected")
}

/// A scratch directory for the generated inputs (removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        let dir = std::env::temp_dir().join(format!("idlog-idrel-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn file(&self, name: &str, content: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `n` employees over `depts` departments with a skewed size profile:
/// department `j` receives employee `k` when `k % (j + 2) == 0` first
/// matches, so low departments are large and high ones small. Emitted in
/// descending name order, so the interner numbers names against their
/// name order.
fn skewed_emp(n: usize, depts: usize, int_depts: bool) -> String {
    let mut out = String::new();
    for k in (0..n).rev() {
        let j = (0..depts).find(|j| k % (j + 2) == 0).unwrap_or(depts - 1);
        let dept = if int_depts {
            // Integer order disagrees with department order.
            format!("{}", (j * 37) % 50)
        } else {
            format!("d{:02}", depts - j)
        };
        writeln!(out, "emp(e{k:03}, {dept}).").unwrap();
    }
    out
}

fn idlog(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_idlog"))
        .args(args)
        .env("IDLOG_THREADS", "1")
        .output()
        .expect("idlog binary runs");
    assert!(
        out.status.success(),
        "idlog {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn idlog_programs_match_golden_runs() {
    let s = Scratch::new();
    let plain = s.file("all_depts_plain.idl", "all_depts(D) :- emp(_N, D).\n");
    let rewritten = idlog(&["optimize", &plain, "--output", "all_depts"]);
    let optimized = s.file("all_depts_optimized.idl", &rewritten);

    let facts = [
        ("company.facts", repo_path("programs/company.facts")),
        (
            "skewed_syms.facts",
            s.file("syms.facts", &skewed_emp(240, 9, false)),
        ),
        (
            "skewed_ints.facts",
            s.file("ints.facts", &skewed_emp(180, 7, true)),
        ),
    ];
    let sampling = repo_path("programs/sampling.idl");
    let all_depts = repo_path("programs/all_depts.idl");
    let dept_sizes = repo_path("programs/dept_sizes.idl");
    let programs = [
        ("sampling.idl", sampling.as_str(), "select_two_emp"),
        ("all_depts.idl", all_depts.as_str(), "all_depts"),
        ("all_depts plain", plain.as_str(), "all_depts"),
        ("all_depts optimized", optimized.as_str(), "all_depts"),
        ("dept_sizes.idl", dept_sizes.as_str(), "singleton"),
        ("dept_sizes.idl", dept_sizes.as_str(), "has_two"),
    ];
    let modes: [(&str, &[&str]); 3] = [
        ("canonical", &[]),
        ("seed 7", &["--seed", "7"]),
        ("seed 1991", &["--seed", "1991"]),
    ];

    let mut got = String::new();
    writeln!(got, "== optimize all_depts plain\n{rewritten}").unwrap();
    for (fname, fpath) in &facts {
        for (pname, ppath, output) in &programs {
            for (mname, extra) in &modes {
                let mut args = vec![
                    "run",
                    ppath,
                    "--facts",
                    fpath,
                    "--output",
                    output,
                    "--profile-json",
                    "-",
                ];
                args.extend_from_slice(extra);
                writeln!(got, "== {pname} --output {output} on {fname} ({mname})").unwrap();
                got.push_str(&idlog(&args));
            }
        }
    }
    // Enumeration materializes one ID-relation per explored assignment.
    let company = repo_path("programs/company.facts");
    for (pname, ppath, output) in [&programs[0], &programs[1]] {
        writeln!(got, "== {pname} --output {output} on company.facts (--all)").unwrap();
        got.push_str(&idlog(&[
            "run",
            ppath,
            "--facts",
            &company,
            "--output",
            output,
            "--all",
            "--max-models",
            "40",
        ]));
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "runs differ from {} at line {}:\n got: {:?}\nwant: {:?}",
            path.display(),
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}
