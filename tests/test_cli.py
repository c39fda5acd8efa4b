import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from stingycolor import complete, cycle, emit_graph6, empty, er_random, path, petersen
from stingycolor.cli import _parse_gen_spec, main
from stingycolor.suites import SUITES


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_c5(capsys):
    code, out, err = run(capsys, "analyze", "--gen", "cycle:5")
    assert code == 0
    report = json.loads(out)
    assert report["inv"]["chi"] == 3 and report["inv"]["iota"] == 1
    assert all(c["verdict"] != "VIOLATION" for c in report["claims"])


def _python310_env():
    """An environment in which ``python3.10`` runs Python 3.10, or None. A
    pyenv shim runs it only when PYENV_VERSION names an installed 3.10."""
    if shutil.which("python3.10") is None:
        return None
    envs = [dict(os.environ)]
    if shutil.which("pyenv"):
        bare = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                              text=True, timeout=60).stdout.split()
        envs += [dict(os.environ, PYENV_VERSION=v) for v in bare if v.startswith("3.10.")]
    for env in envs:
        probe = subprocess.run(["python3.10", "-c", "import sys; print(sys.version_info[:2])"],
                               capture_output=True, text=True, env=env, timeout=60)
        if probe.returncode == 0 and probe.stdout == "(3, 10)\n":
            return env
    return None


def test_oldest_supported_python_sweeps_alike():
    # pyproject.toml requires Python >= 3.10: the oldest one must write what
    # this interpreter writes.
    env = _python310_env()
    if env is None:
        pytest.skip("no runnable python3.10 on PATH")
    env["PYTHONPATH"] = SRC
    argv = ["-m", "stingycolor", "sweep", "--exhaustive", "--max-n", "5", "--min-n", "0"]
    old, new = (subprocess.run([exe, *argv], capture_output=True, env=env, timeout=300)
                for exe in ("python3.10", sys.executable))
    assert (old.returncode, old.stdout, old.stderr) == (new.returncode, new.stdout, new.stderr)
    assert new.returncode == 0 and new.stderr == b"swept 53 graphs, 0 violations\n"


def test_python_m_runs_the_cli(capsys):
    # ``python -m stingycolor`` is the same command line as ``main``.
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "stingycolor", "analyze", "--gen", "cycle:5"],
                          capture_output=True, text=True, env=env, timeout=60)
    code, out, _ = run(capsys, "analyze", "--gen", "cycle:5")
    assert (proc.returncode, proc.stdout) == (code, out) == (0, out)
    proc = subprocess.run([sys.executable, "-m", "stingycolor", "analyze", "--g6", ""],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("error:")


def test_analyze_g6_k1(capsys):
    code, out, _ = run(capsys, "analyze", "--g6", "@")
    assert code == 0
    report = json.loads(out)
    assert report["inv"]["n"] == 1 and report["inv"]["chi"] == 1
    assert report["inv"]["iota"] == 1
    verdicts = {c["name"]: c["verdict"] for c in report["claims"]}
    assert set(verdicts.values()) <= {"checked-pass", "vacuous-pass"}


def test_analyze_r1_sanity(capsys):
    code, out, _ = run(capsys, "analyze", "--gen", "path:4", "--r", "1")
    assert code == 0
    report = json.loads(out)
    by = {c["name"]: c for c in report["claims"]}
    assert by["r1-sanity"]["verdict"] == "checked-pass"
    assert report["inv"]["bounded"]["1"]["chi_r"] == 4


def test_analyze_bad_g6(capsys):
    code, _, err = run(capsys, "analyze", "--g6", "D" + chr(20))
    assert code == 2
    assert "byte offset" in err


def test_analyze_csv(capsys):
    code, out, _ = run(capsys, "analyze", "--gen", "cycle:4", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("g6,")
    assert row.startswith("Cl,")  # cycle(4) in graph6
    assert set(row.split(",")[1:]) <= {"checked-pass", "vacuous-pass"}


def test_sweep_exhaustive_n4(capsys, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    code, _, err = run(capsys, "sweep", "--exhaustive", "--max-n", "4",
                       "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 11  # isomorphism classes on 4 vertices
    assert "0 violations" in err


def test_sweep_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "sweep", "--exhaustive", "--max-n", "4", "--out", str(a))[0] == 0
    assert run(capsys, "sweep", "--exhaustive", "--max-n", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_min_n_widens(capsys, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    code, _, _ = run(capsys, "sweep", "--exhaustive", "--max-n", "3",
                     "--min-n", "1", "--out", str(out_path))
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 1 + 2 + 4


# sha256 of `sweep --exhaustive --max-n 6 --min-n 0` (JSONL, default options).
# It pins every report on the 209 classes with n <= 6: a change to any of them
# must be deliberate and update this digest.
SWEEP_N6_SHA256 = "fdd161124a726040a0e6088a457877102c41d56868a6668a75842b5fa427bdfb"


def test_sweep_n6_golden_digest(capsys, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    code, _, err = run(capsys, "sweep", "--exhaustive", "--max-n", "6", "--min-n", "0",
                       "--out", str(out_path))
    assert code == 0
    assert err == "swept 209 graphs, 0 violations\n"
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SWEEP_N6_SHA256


# The not-evaluated paths: sha256 of `analyze --gen er:11,0.5,1`, where the
# optimal guard refuses every claim record, and of the n <= 6
# sweep under guards 5/4, where it refuses them on the graphs with 6 vertices.
ANALYZE_ER11_SHA256 = "34583628740b55cf2d687b021373457cf888849780e529f50d2dbd05af4d80c1"
SWEEP_N6_GUARDS_5_4_SHA256 = "8df7f23c6b65c3ef5b673f64fafb91f9cb368b8d41ca76468f5a40085ff620ed"


def test_analyze_not_evaluated_golden_digest(capsys):
    code, out, err = run(capsys, "analyze", "--gen", "er:11,0.5,1")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_ER11_SHA256


def test_sweep_n6_guards_5_4_golden_digest(capsys, monkeypatch):
    monkeypatch.setenv("STINGYCOLOR_OPTIMAL_GUARD", "5")
    monkeypatch.setenv("STINGYCOLOR_FULL_GUARD", "4")
    code, out, err = run(capsys, "sweep", "--exhaustive", "--max-n", "6", "--min-n", "0")
    assert (code, err) == (0, "swept 209 graphs, 0 violations\n")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_N6_GUARDS_5_4_SHA256


# sha256 of the stdout of `verify --suite <suite> --max-n 6` (default options),
# with the number of checks it reports: every swap of every proper coloring,
# every touches and lonely-degree record, and every lonely path pair of every
# optimal (and, for B_2 and B_3, P-optimal) coloring, on the 209 classes with
# n <= 6.
VERIFY_N6_SHA256 = {
    "swap": ("98a98738bfa74be87219bcfb7b84d823344a9689fdaa963739fc46ba805b74b7", 15680),
    "replete": ("266f9def041b0e330c1af713070843b2a41186e77e817eeb35698717afed098d", 5505),
    "lonely-path": ("185051ffa678f320a311809824358fa68682357d0c57827bd9e25072a71919d5", 6373),
    "generalized-lonely-path": (
        "58ec8cc0269e38609ed63545d5cbcab91ff5b4779a584083e1ebf37e40753934", 12720),
}


@pytest.mark.parametrize("suite", sorted(VERIFY_N6_SHA256))
def test_verify_n6_golden_digest(capsys, suite):
    digest, checked = VERIFY_N6_SHA256[suite]
    code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "6")
    assert code == 0
    assert json.loads(out)["checked"] == checked
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of the lonely-path routes the digests above miss, with
# the number of checks each reports: seeded samples at n = 7, 8 (the route of
# `verify --samples`) and the path lengths other than the default 3.
VERIFY_LONELY_PATH_SHA256 = {
    ("--max-n", "3", "--samples", "300", "--sample-ns", "7,8", "--seed", "5"): (
        "2d6074ace0025fb65807b00a6a50ff7b2bd0fb20d51c245931e0eda98d9e872e", 28773),
    ("--max-n", "6", "--max-path-len", "1"): (
        "b449b6583a72fbd08d162055c07ccfa96cd213a7c4b9a4562a8896505e70f46a", 401),
    ("--max-n", "6", "--max-path-len", "2"): (
        "080ef417116f28e5f17bee065495e7203896b9d7f27f935a84b3ef44713a2b71", 2663),
    ("--max-n", "6", "--max-path-len", "4"): (
        "cbd23740caaeb9badb16dff06e978421772f16be06279972f1e1b9333fbd5493", 8653),
}


@pytest.mark.parametrize("options", sorted(VERIFY_LONELY_PATH_SHA256), ids=" ".join)
def test_verify_lonely_path_golden_digest(capsys, options):
    digest, checked = VERIFY_LONELY_PATH_SHA256[options]
    code, out, _ = run(capsys, "verify", "--suite", "lonely-path", *options)
    assert code == 0
    assert json.loads(out)["checked"] == checked
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `verify --suite properties --max-n 5` (default
# options): the B_2 and B_3 checks on the 53 classes with n <= 5, plus two
# checks for each of the 100 seeded predicates on K3, P4 and C5. It exits 1:
# those predicates include the known counterexamples to the claimed
# complete-condition equivalence (criterion 08a).
VERIFY_PROPERTIES_N5_SHA256 = "c71c92c6dc846580abc3a84c257f481f155067ad48bc84ffa60440b73096b05f"


def test_verify_properties_golden_digest(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "properties", "--max-n", "5")
    assert code == 1
    assert json.loads(out)["checked"] == 706
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_PROPERTIES_N5_SHA256


def test_verify_properties_checks_b_r_up_to_max_n(capsys):
    # B_r's checks run without enumeration, so --max-n 6 reaches n = 6
    # rather than stopping at n = 5.
    code, out, _ = run(capsys, "verify", "--suite", "properties", "--max-n", "6")
    assert code == 1
    result = json.loads(out)
    assert result["config"]["max_n_br"] == 6
    assert result["checked"] == 1018


def test_verify_gen_lonely_path_reads_p_optimal_stream(capsys, monkeypatch):
    # generalized-lonely-path enumerates the B_r-optimal colorings through
    # chi_P, so the guard that refuses it is chi_P's.
    monkeypatch.setenv("STINGYCOLOR_OPTIMAL_GUARD", "4")
    assert run(capsys, "verify", "--suite", "generalized-lonely-path", "--max-n", "5") == (
        2, "", "error: chi_P guarded at n <= 4 (graph has 5)\n")


def test_sweep_corpus_with_bad_line(capsys, tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("Dhc\nbad line\nD??\n")
    out_path = tmp_path / "reports.jsonl"
    code, _, err = run(capsys, "sweep", "--input", str(corpus), "--out", str(out_path))
    assert code == 2  # structural error, but processing continued
    assert ":2:" in err
    assert len(out_path.read_text().splitlines()) == 2


@pytest.mark.parametrize("source", ["complete", "empty", "corpus"])
def test_recursion_too_deep_is_an_error_not_a_violation(capsys, tmp_path, source):
    # The clique search on K1500, and the one on the complement of the
    # edgeless graph, recurse once per vertex: past Python's recursion limit
    # that is a structural error (exit 2), never a VIOLATION (exit 1).
    if source == "corpus":
        corpus = tmp_path / "k1500.g6"
        corpus.write_text(emit_graph6(complete(1500)) + "\n")
        argv = ("sweep", "--input", str(corpus))
    else:
        argv = ("analyze", "--gen", f"{source}:1500")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "matrix.csv"
    code, _, _ = run(capsys, "sweep", "--exhaustive", "--max-n", "3",
                     "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("g6,")
    assert len(lines) == 1 + 4


def test_sweep_exhaustive_beyond_limit(capsys):
    code, _, err = run(capsys, "sweep", "--exhaustive", "--max-n", "9")
    assert code == 2
    assert "n <= 6" in err


def test_sweep_n5_carries_conjecture_records(capsys, tmp_path):
    out_path = tmp_path / "n5.jsonl"
    code, _, _ = run(capsys, "sweep", "--exhaustive", "--max-n", "5",
                     "--r", "2,3", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 34
    for line in lines:
        names = {c["name"] for c in json.loads(line)["claims"]}
        assert {"gen-reed-conjecture[r=2]", "gen-reed-conjecture[r=3]"} <= names


def test_search_clean_claim(capsys):
    code, out, err = run(capsys, "search", "--claim", "gen-reed-conjecture[r=3]",
                         "--max-n", "4", "--r", "3")
    assert code == 0
    assert out == ""
    assert "0 counterexamples" in err


NOT_EVALUATED_N11 = ["--max-n", "0", "--samples", "3", "--sample-ns", "11", "--seed", "1"]
LONELY_SOME = ["--max-n", "5", *NOT_EVALUATED_N11[2:]]


@pytest.mark.parametrize("argv, env, code, err", [
    (["--claim", "simple-bound", "--max-n", "4"], {}, 0,
     "searched 18 graphs (18 claim records), 0 counterexamples\n"),
    (["--claim", "simple-bound", *NOT_EVALUATED_N11], {}, 2,
     "error: claim 'simple-bound' was not evaluated on any of the 3 graphs searched: "
     "stinginess guarded at n <= 10 (graph has 11)\n"),
    (["--claim", "lonely-path-join", *NOT_EVALUATED_N11], {}, 2,
     "error: claim 'lonely-path-join' was not evaluated on any of the 3 graphs searched: "
     "optimal coloring enumeration guarded at n <= 10 (graph has 11)\n"),
    (["--claim", "simple-bound", "--min-n", "4", "--max-n", "6"],
     {"STINGYCOLOR_OPTIMAL_GUARD": "3"}, 2,
     "error: claim 'simple-bound' was not evaluated on any of the 201 graphs searched: "
     "stinginess guarded at n <= 3 (graph has 4)\n"),
    (["--claim", "simple-bound", "--max-n", "6"], {"STINGYCOLOR_OPTIMAL_GUARD": "3"}, 0,
     "searched 208 graphs (208 claim records), 0 counterexamples, 201 not evaluated\n"),
    (["--claim", "lonely-path-join", *NOT_EVALUATED_N11[2:], "--max-n", "2"], {}, 0,
     "searched 6 graphs (12 claim records), 0 counterexamples, 3 not evaluated\n"),
    # A refused lonely stream leaves one lonely-claims record, which every
    # lonely query counts: a tagged, a per-r and a base-name query alike.
    (["--claim", "lonely-path-join[B_3]", *LONELY_SOME], {}, 0,
     "searched 55 graphs (55 claim records), 0 counterexamples, 3 not evaluated\n"),
    (["--claim", "singleton-meets-small-classes", *LONELY_SOME], {}, 0,
     "searched 55 graphs (159 claim records), 0 counterexamples, 3 not evaluated\n"),
    (["--claim", "gen-lonely-degree-bound[r=2,t=1/2]", *LONELY_SOME], {}, 0,
     "searched 55 graphs (55 claim records), 0 counterexamples, 3 not evaluated\n"),
    (["--claim", "lonely-path-join", "--max-n", "6"], {"STINGYCOLOR_OPTIMAL_GUARD": "4"}, 0,
     "searched 208 graphs (244 claim records), 0 counterexamples, 190 not evaluated\n"),
    (["--claim", "gen-lonely-degree-bound", "--max-n", "6"],
     {"STINGYCOLOR_OPTIMAL_GUARD": "4"}, 0,
     "searched 208 graphs (298 claim records), 0 counterexamples, 190 not evaluated\n"),
], ids=["all-evaluated", "classic-none", "lonely-none", "guard-3-none", "guard-3-some",
        "lonely-some", "lonely-b3", "lonely-per-r", "lonely-r-and-t", "guard-4-join",
        "guard-4-degree"])
def test_search_not_evaluated(capsys, monkeypatch, argv, env, code, err):
    # A search that evaluated none of its records checked nothing: exit 2. A
    # search that evaluated some says how many it did not.
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert run(capsys, "search", *argv) == (code, "", err)


def test_search_unknown_claim(capsys):
    code, _, err = run(capsys, "search", "--claim", "foo", "--max-n", "3")
    assert code == 2
    assert "valid claims" in err


def test_verify_swap(capsys):
    code, out, err = run(capsys, "verify", "--suite", "swap", "--max-n", "4")
    assert code == 0
    result = json.loads(out)
    assert result["passed"] and result["violations"] == []
    assert "0 violations" in err


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "4")
    assert code == 0
    assert json.loads(out)["passed"]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "valid suites" in err


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "lonely-path", "--max-n", "4",
                     "--samples", "20", "--sample-ns", "7", "--seed", "11")
    _, out2, _ = run(capsys, "verify", "--suite", "lonely-path", "--max-n", "4",
                     "--samples", "20", "--sample-ns", "7", "--seed", "11")
    assert out1 == out2


def test_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("STINGYCOLOR_OPTIMAL_GUARD", "3")
    code, out, _ = run(capsys, "analyze", "--gen", "cycle:5")
    assert code == 0  # not-evaluated claims are not violations
    report = json.loads(out)
    assert report["inv"]["chi"] is None
    assert any(c["verdict"] == "not-evaluated" for c in report["claims"])


@pytest.mark.parametrize("var", ["STINGYCOLOR_OPTIMAL_GUARD", "STINGYCOLOR_FULL_GUARD"])
@pytest.mark.parametrize("value", ["ten", "-1"])
def test_bad_guard_env_is_usage_error(capsys, monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    code, out, err = run(capsys, "analyze", "--gen", "cycle:5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and var in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "lonely-path", "--max-n", "7"),
    ("verify", "--suite", "identities", "--max-n", "-1"),
    ("search", "--claim", "simple-bound", "--max-n", "7"),
    ("search", "--claim", "simple-bound", "--min-n", "-1", "--max-n", "2"),
    ("search", "--claim", "simple-bound", "--samples", "5", "--seed", "1"),
    ("sweep", "--exhaustive", "--max-n", "3", "--min-n", "-1"),
    ("analyze", "--r", "0", "--gen", "cycle:5"),
    ("analyze", "--gen", "cycle:5", "--max-path-len", "0"),
    ("verify", "--suite", "lonely-path", "--max-n", "3", "--max-path-len", "0"),
    ("analyze", "--g6", ""),
    ("search", "--claim", "simple-bound", "--min-n", "5", "--max-n", "3"),
    ("search", "--claim", "simple-bound", "--max-n", "0"),
    ("search", "--claim", "gen-reed-conjecture[r=5]", "--max-n", "3"),
    ("sweep", "--exhaustive", "--min-n", "5", "--max-n", "3"),
    ("verify", "--suite", "lonely-path", "--max-n", "2", "--samples", "-5", "--seed", "1"),
    ("search", "--claim", "simple-bound", "--max-n", "2", "--samples", "-5",
     "--sample-ns", "7", "--seed", "1"),
    ("search", "--claim", "simple-bound", "--max-n", "0", "--samples", "2",
     "--sample-ns", "-1", "--seed", "1"),
    ("verify", "--suite", "properties", "--max-n", "2", "--predicates", "-2"),
    ("verify", "--suite", "swap", "--max-n", "1"),
    ("verify", "--suite", "lonely-path", "--max-n", "1"),
    ("analyze", "--gen", "cycle:5", "--r", "2,2"),
    ("analyze", "--gen", "cycle:5", "--t", "0,0"),
    ("sweep", "--exhaustive", "--max-n", "3", "--t", "1/2,0.5"),
    ("search", "--claim", "simple-bound", "--max-n", "3", "--r", "3,1,3"),
    ("analyze", "--gen", "cycle:5", "--t", "1/0"),
    ("verify", "--suite", "swap", "--max-n", "2", "--t", "0,1/0"),
    ("analyze", "--gen", "cycle:5", "--t", "x"),
    ("analyze", "--gen", "cycle:5", "--max-path-len", "x"),
    ("analyze", "--gen", "hypercube:3"),
    ("analyze", "--gen", "petersen:3"),
    ("analyze", "--gen", "cycle:5,"),
    ("analyze", "--gen", "complete:3,"),
    ("analyze", "--gen", "er:8,,0.5,42"),
    ("analyze", "--gen", "petersen:"),
    ("search", "--claim", "reed-disjunct", "--max-n", "3", "--samples", "2"),
    ("verify", "--suite", "lonely-path", "--max-n", "2", "--samples", "2"),
    # without --samples, --sample-ns is read by nothing and --seed only by
    # the properties suite
    ("verify", "--suite", "swap", "--max-n", "2", "--sample-ns", "7", "--seed", "4"),
    ("verify", "--suite", "lonely-path", "--max-n", "2", "--sample-ns", "9"),
    ("verify", "--suite", "properties", "--max-n", "2", "--sample-ns", "7"),
    ("search", "--claim", "reed-disjunct", "--max-n", "3", "--sample-ns", "9"),
    ("search", "--claim", "reed-disjunct", "--max-n", "3", "--seed", "9"),
    ("verify", "--suite", "lonely-path", "--max-n", "2", "--seed", "4"),
    ("verify", "--suite", "identities", "--max-n", "2", "--samples", "0", "--seed", "4"),
    # an empty item in a list option is rejected, not dropped
    ("analyze", "--gen", "cycle:5", "--r", "1,,2"),
    ("analyze", "--gen", "cycle:5", "--r", "2,"),
    ("analyze", "--gen", "cycle:5", "--r", ","),
    ("analyze", "--gen", "cycle:5", "--t", "0,,1/2"),
    ("verify", "--suite", "lonely-path", "--max-n", "3", "--samples", "3",
     "--sample-ns", "7,,8", "--seed", "1"),
    # random.Random seeds by the absolute value, so a negative seed would
    # silently draw the positive one's samples
    ("analyze", "--gen", "er:8,0.5,-1"),
    ("verify", "--suite", "lonely-path", "--max-n", "3", "--samples", "50",
     "--sample-ns", "7", "--seed", "-3"),
    ("verify", "--suite", "properties", "--max-n", "2", "--seed", "-1"),
    ("search", "--claim", "simple-bound", "--max-n", "2", "--samples", "2",
     "--sample-ns", "7", "--seed", "-3"),
], ids=" ".join)
def test_bad_option_is_usage_error(capsys, argv):
    # Options rejected while the argv is parsed (a bad value type, --samples
    # without --seed) and after it take the same shape: exit 2, one line.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("claim, named", [
    ("chi2-identity[r=2]", "chi2-identity"),
    ("iota2-bound[r=2]", "iota2-bound"),
    ("r1-sanity[r=1]", "r1-sanity"),
    ("lonely-degree-bound[t=3]", "lonely-degree-bound[t=0], lonely-degree-bound[t=1/2]"),
])
def test_claim_no_record_carries_is_refused_before_any_graph(capsys, monkeypatch, claim, named):
    # A fixed-r row's record has the bare name, and --t 0,1/2 names no t = 3
    # record: the query is refused with the names it could match, before the
    # search evaluates a graph.
    def search_claim(*args, **kwargs):
        raise AssertionError("searched a query no record can match")

    monkeypatch.setattr("stingycolor.suites.search_claim", search_claim)
    code, out, err = run(capsys, "search", "--claim", claim, "--max-n", "6")
    assert (code, out) == (2, "")
    assert err == (f"error: claim {claim!r} names no record under these --r and --t; "
                   f"{claim.split('[')[0]}'s records are named: {named}\n")


@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"lonely-path"}))
def test_verify_samples_on_unsampled_suite_is_usage_error(capsys, suite):
    # Only lonely-path draws samples; any other suite would drop them unread.
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "2",
                         "--samples", "3", "--sample-ns", "7", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == f"error: suite {suite} takes no --samples; only lonely-path samples\n"


@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"properties"}))
def test_verify_predicates_on_other_suite_is_usage_error(capsys, suite):
    # Only the properties suite draws predicates; any other would drop them unread.
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "3",
                         "--predicates", "3")
    assert (code, out) == (2, "")
    assert err == "error: --predicates is read only by the properties suite\n"


@pytest.mark.parametrize("argv, message", [
    (("search", "--claim", "reed-disjunct", "--max-n", "3", "--seed", "9"),
     "--seed is read only with --samples"),
    (("verify", "--suite", "swap", "--max-n", "2", "--seed", "4"),
     "--seed without --samples is read only by the properties suite"),
], ids=["search", "verify"])
def test_seed_without_samples_names_its_reader(capsys, argv, message):
    # search has no suites, so only verify's refusal names one
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_properties_suite_reads_seed_without_samples(capsys):
    # its seeded predicates read --seed, so there it needs no --samples
    code, out, _ = run(capsys, "verify", "--suite", "properties", "--max-n", "2", "--seed", "4")
    assert code == 1
    assert json.loads(out)["config"]["seed"] == 4


@pytest.mark.parametrize("spec, graph", [
    ("complete:4", complete(4)),
    ("cycle:5", cycle(5)),
    ("path:3", path(3)),
    ("empty:2", empty(2)),
    ("petersen", petersen()),
    ("er:8,0.5,42", er_random(8, 0.5, seed=42)),
    ("er_random:6,0.3,1", er_random(6, 0.3, seed=1)),
])
def test_gen_spec_builds_its_family(spec, graph):
    assert _parse_gen_spec(spec) == graph


@pytest.mark.parametrize("argv", [
    ("analyze", "--gen", "cycle:5"),
    ("analyze", "--gen", "cycle:5", "--format", "csv"),
    ("sweep", "--exhaustive", "--max-n", "3"),
    ("verify", "--suite", "identities", "--max-n", "3"),
    ("search", "--claim", "simple-bound", "--max-n", "3"),
], ids=" ".join)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write ") and str(target) in err


def test_sweep_missing_input_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.g6"
    code, out, err = run(capsys, "sweep", "--input", str(missing))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and str(missing) in err


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank-only"])
def test_sweep_corpus_without_graphs_is_usage_error(capsys, tmp_path, text):
    # A sweep that checked nothing must not report clean.
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(text)
    assert run(capsys, "sweep", "--input", str(corpus)) == (
        2, "", f"error: {corpus} holds no graph6 line: nothing to sweep\n")


def test_search_samples_only_mode(capsys):
    # an empty exhaustive range is fine when samples are the run
    code, _, err = run(capsys, "search", "--claim", "simple-bound", "--max-n", "0",
                       "--samples", "3", "--sample-ns", "7", "--seed", "1")
    assert code == 0
    assert err.startswith("searched 3 graphs")


def _fuzz_argv(rng):
    def pick(good, bad=()):
        """Mostly a value the option accepts, sometimes one it must reject."""
        return rng.choice(bad if bad and rng.random() < 0.12 else good)

    small_n = (("0", "1", "2", "3", "4"), ("-1", "7", "x", ""))
    command = rng.choice(("analyze", "sweep", "search", "verify"))
    argv = [command]
    if command == "analyze":
        if rng.random() < 0.5:
            length = rng.randrange(0, 7)
            argv += ["--g6", "".join(chr(rng.randrange(33, 256)) for _ in range(length))]
        else:
            argv += ["--gen", pick(("cycle:5", "path:4", "empty:3", "petersen", "er:8,0.5,3"),
                                   ("cycle:-1", "complete:x", "er:6,1.5,2", "er:7,0.3",
                                    "star:4", "cycle:", ""))]
        if rng.random() < 0.3:
            argv += ["--format", pick(("jsonl", "csv"), ("xml",))]
    elif command == "sweep":
        argv += ["--exhaustive"]
        if rng.random() < 0.9:
            argv += ["--max-n", pick(*small_n)]
        if rng.random() < 0.5:
            argv += ["--min-n", pick(*small_n)]
        if rng.random() < 0.3:
            argv += ["--format", pick(("jsonl", "csv"), ("xml",))]
    elif command == "search":
        argv += ["--claim", pick(("simple-bound", "gen-reed-conjecture[r=2]",
                                  "lonely-path-join", "iota2-bound", "matching-bound"),
                                 ("gen-reed-conjecture[r=9]", "nope", ""))]
        argv += ["--max-n", pick(*small_n)]
        if rng.random() < 0.4:
            argv += ["--min-n", pick(*small_n)]
    else:
        suite = pick(sorted(SUITES), ("nope",))
        argv += ["--suite", suite, "--max-n", pick(*small_n)]
        if suite == "properties":
            argv += ["--predicates", pick(("0", "2", "100"), ("-2",))]
        elif rng.random() < 0.12:
            argv += ["--predicates", "2"]  # read only by properties: a bad pick
    if command in ("search", "verify") and rng.random() < 0.5:
        argv += ["--samples", pick(("0", "1", "3"), ("-5", "x")),
                 "--sample-ns", pick(("7", "8,7", "0"), ("-1", "", "x"))]
    if command in ("search", "verify") and rng.random() < 0.8:
        argv += ["--seed", pick(("1", "12345"), ("x", "-3"))]
    if rng.random() < 0.3:
        argv += ["--r", pick(("1,2,3", "2"), ("0", "-1", "x", "1,,3"))]
    if rng.random() < 0.3:
        argv += ["--t", pick(("0,1/2", "1"), ("1/3", "-1", "x", "1/0"))]
    if rng.random() < 0.2:
        argv += ["--max-path-len", pick(("1", "3"), ("-1", "0", "x"))]
    return argv


def _violation_payload(command, out):
    if command == "search":
        return any(json.loads(line)["claim"] for line in out.splitlines())
    if command == "verify":
        return bool(json.loads(out)["violations"])
    if command == "analyze" and out.startswith("g6,"):
        return "VIOLATION" in out
    return any(c["verdict"] == "VIOLATION"
               for line in out.splitlines() for c in json.loads(line)["claims"])


def test_cli_argv_fuzz(capsys, monkeypatch):
    # Exit codes keep their meaning on arbitrary argv: 0, 1 only with a
    # violation in the output, 2 for usage errors, each reported as one
    # ``error:`` line; nothing escapes as an exception (in a process, a
    # traceback or argparse's usage block).
    rng = random.Random(20261018)
    seen = set()
    for _ in range(200):
        argv = _fuzz_argv(rng)
        for var in ("STINGYCOLOR_OPTIMAL_GUARD", "STINGYCOLOR_FULL_GUARD"):
            if rng.random() < 0.05:
                monkeypatch.setenv(var, rng.choice(("3", "0", "ten", "-1")))
            else:
                monkeypatch.delenv(var, raising=False)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 1:
            assert _violation_payload(argv[0], out), argv
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), argv
        seen.add(code)
    assert {0, 2} <= seen  # the argv mix reaches both clean runs and rejections
