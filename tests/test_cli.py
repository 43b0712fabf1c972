"""Tests for the command-line interface: exit codes, JSON contracts, determinism."""

import dataclasses
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rbcm import brute, maps
from rbcm.cli import EXIT_BUDGET, EXIT_INTERNAL, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from rbcm.classify import InternalInconsistency, realize
from rbcm.groups import Metacyclic
from rbcm.maps import VerificationError, canonical_json, map_to_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    return code, doc, captured.err


@pytest.fixture(scope="module")
def z5_map_file(tmp_path_factory):
    Z5 = Metacyclic(5, 1, 1)
    cm = maps.CayleyMap(Z5, [1, 2, 4, 3])  # a, a^2, a^4, a^3
    skew = maps.is_regular(cm)
    path = tmp_path_factory.mktemp("maps") / "z5.json"
    path.write_text(canonical_json(map_to_json_dict(cm, skew)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def z8_map_doc():
    fm = brute.enumerate_rbcm(Metacyclic(8, 1, 1))[0]
    return map_to_json_dict(fm.cmap, fm.skew)


@pytest.fixture(scope="module")
def delta_map_file(tmp_path_factory):
    r = realize(7, 3, 4, 0)
    path = tmp_path_factory.mktemp("maps") / "delta734.json"
    path.write_text(
        canonical_json(map_to_json_dict(r.cmap, r.skew)), encoding="utf-8"
    )
    return path


@pytest.fixture(scope="module")
def bare_map_file(tmp_path_factory):
    """The map of ``delta_map_file`` without its skew table, so that
    ``verify`` and ``quotient`` find the skew-morphism by ``is_regular``."""
    path = tmp_path_factory.mktemp("maps") / "delta734-bare.json"
    path.write_text(canonical_json(map_to_json_dict(realize(7, 3, 4, 0).cmap)), encoding="utf-8")
    return path


class TestClassifyCommand:
    def test_full_734(self, capsys):
        code, doc, err = run_cli(
            capsys, "classify", "--a", "7", "--b", "3", "--c", "4", "--verify-level", "full"
        )
        assert code == 0
        assert doc["count"] == 4
        assert all(s["verified"] for s in doc["solutions"])
        assert doc["pairwise_distinct"]
        assert [s["z"] for s in doc["solutions"]] == [3, 11, 19, 27]
        assert "4 isomorphism classes" in err

    def test_invalid_descriptor(self, capsys):
        code, doc, _ = run_cli(capsys, "classify", "--a", "6", "--b", "3", "--c", "3")
        assert code == 2
        assert "b != c" in doc["error"]

    def test_no_existence(self, capsys):
        code, doc, _ = run_cli(capsys, "classify", "--a", "7", "--b", "4", "--c", "3")
        assert code == 0
        assert doc["count"] == 0
        assert "c > b" in doc["reason"]

    @pytest.mark.parametrize(
        "error, code",
        [(VerificationError("tampered check"), EXIT_VERIFY_FAILED),
         (InternalInconsistency("broken identity"), EXIT_INTERNAL),
         (MemoryError("Unable to allocate 8.00 EiB"), EXIT_BUDGET)],
    )
    def test_engine_errors_become_json(self, capsys, monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error

        # the package re-exports the function ``classify``; patch the module
        monkeypatch.setattr(importlib.import_module("rbcm.classify"), "realize", fail)
        for level in ("fast", "full"):
            argv = ("--workers", "1", "classify", "--a", "7", "--b", "3", "--c", "4")
            got, doc, err = run_cli(capsys, *argv, "--verify-level", level)
            assert got == code
            assert doc == {"error": str(error)}
            assert str(error) in err

    @pytest.mark.parametrize(
        "field, key",
        [("map_type", "type_I_normalized"), ("t", "pi_on_generators_is_t")],
    )
    def test_failed_check_raises_naming_its_key(self, capsys, monkeypatch, field, key):
        # a balance with the wrong type, or a t that passes (C4) and the
        # normalization but is not pi(omega_d)
        balance_data = maps.balance_data

        def tampered(cmap):
            bal = balance_data(cmap)
            value = "II" if field == "map_type" else bal.t + bal.d
            return dataclasses.replace(bal, **{field: value})

        monkeypatch.setattr(maps, "balance_data", tampered)
        with pytest.raises(VerificationError, match=f"^check {key} fails$"):
            realize(7, 3, 4, 0, full=False)
        argv = ("--workers", "1", "classify", "--a", "7", "--b", "3", "--c", "4")
        code, doc, _ = run_cli(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        assert doc == {"error": f"check {key} fails"}

    def test_a_past_int64_bound_is_a_usage_error(self, capsys, monkeypatch):
        def allocate(*args, **kwargs):
            raise AssertionError("a map was realized")

        monkeypatch.setattr(importlib.import_module("rbcm.classify"), "realize", allocate)
        argv = ("--workers", "1", "classify", "--a", "40", "--b", "21", "--c", "22")
        code, doc, _ = run_cli(capsys, *argv, "--verify-level", "fast")
        assert code == EXIT_USAGE
        assert "a <= 31" in doc["error"]

    # sha256 of the stdout of ``rbcm --workers W classify --a A --b B --c C
    # --verify-level full``, the same for W = 1 and 2: the flag still parses
    # and selects nothing.  Only a change meant to alter that output may
    # regenerate them, with
    #   PYTHONPATH=src python -m rbcm.cli --workers 1 classify \
    #       --a 7 --b 3 --c 4 --verify-level full | sha256sum
    FULL_STDOUT_SHA256 = {
        (7, 3, 4): "0163467e71f0c55ceb180137acefe2f989e56d1bb86909ed44e73216ba0368b2",
        (8, 3, 5): "013ca3ecaa570975bda329b11b3d529a4859af9980a723b1c122c55209c40601",
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("abc", sorted(FULL_STDOUT_SHA256), ids=lambda t: "D(%d,%d,%d)" % t)
    def test_full_stdout_is_pinned(self, capsys, abc, workers):
        a, b, c = map(str, abc)
        code = main(["--workers", workers, "classify", "--a", a, "--b", b, "--c", c,
                     "--verify-level", "full"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.FULL_STDOUT_SHA256[abc]

    def test_deterministic_output(self, capsys):
        argv = ("classify", "--a", "7", "--b", "3", "--c", "4", "--verify-level", "fast")
        code1, doc1, _ = run_cli(capsys, *argv)
        code2, doc2, _ = run_cli(capsys, *argv)
        assert (code1, doc1) == (code2, doc2)
        assert canonical_json(doc1) == canonical_json(doc2)


# sha256 of the stdout of ``rbcm ARGV`` and its exit code, for commands whose
# output must stay byte for byte the same; ``DOC`` stands for the document of
# ``realize(7, 3, 4, 0)`` that ``delta_map_file`` writes, and ``BARE`` for the
# same map without its skew table (``bare_map_file``).  Only a change meant
# to alter an output may regenerate its digest, with
#   PYTHONPATH=src python -m rbcm.cli ARGV | sha256sum
PINNED_STDOUT_SHA256 = {
    ("bruteforce", "--group", "Z8", "--exhaustive"):
        "e963e2c977add3d80c22b2348ab02425bfade893112bdd138292cb2ce78464c7",
    ("bruteforce", "--group", "Z2xZ4", "--exhaustive"):
        "0e854f967546e9607fe0a272acdc9b936b2dfb90385a94453b9e4c98954e7f75",
    ("bruteforce", "--group", "L(8,2,3)", "--exhaustive"):
        "5605b2bb7370ee55c628d05a6e022d0cedbd54b2daaaf54f716adcbc66a50e3c",
    ("--workers", "1", "classify", "--a", "8", "--b", "3", "--c", "5", "--verify-level", "fast"):
        "7b1f68007bf43fde73458af0190f66d933f47c50ae9c69ee17b21b113c9beb1d",
    ("verify", "DOC", "--quotient", "a^16"):
        "70b8824129f407e241587a2db1265319010e2debdff3c7d0703ea11a36429280",
    ("quotient", "DOC", "--xi", "a^16"):
        "29505393bdb5a10dea65c16ca60831a1ab84fa53e6197ea3c67e7237d2955cca",
    ("genus", "DOC"): "498310919a0766e204fb5976edc1740821fc4444f1eb3b28d3392cd0c280beb4",
    ("verify", "BARE"): "6e0aaac50e755ae978105af6c86b51a8cc0ebf9dd789c2c344e4f5419baa3855",
    ("verify", "BARE", "--quotient", "a^16"):
        "e4f86e752ac690165529d71383cd5122bde433582332a6dfd1021f60c19de0a8",
    ("quotient", "BARE", "--xi", "a^16"):
        "29505393bdb5a10dea65c16ca60831a1ab84fa53e6197ea3c67e7237d2955cca",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT_SHA256), ids=" ".join)
def test_stdout_is_pinned(capsys, delta_map_file, bare_map_file, argv):
    files = {"DOC": str(delta_map_file), "BARE": str(bare_map_file)}
    code = main([files.get(arg, arg) for arg in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[argv]


class TestBruteforceCommand:
    def test_z8(self, capsys):
        code, doc, _ = run_cli(capsys, "bruteforce", "--group", "Z8")
        assert code == 0
        assert doc["count"] == 2
        assert not doc["partial"]

    def test_l823_terminates(self, capsys):
        code, doc, _ = run_cli(capsys, "bruteforce", "--group", "L(8,2,3)")
        assert code == 0 and doc["count"] == 5

    def test_budget_exceeded(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bruteforce", "--group", "L(128,2,63)", "--max-order", "64"
        )
        assert code == 3

    def test_guided_defaults_to_its_own_order_ceiling(self, capsys):
        # D(5,3,2) has order 256, above the enumeration's ceiling of 64
        code, doc, _ = run_cli(capsys, "bruteforce", "--group", "D(5,3,2)", "--guided")
        assert code == 0
        assert doc["exhausted"] is True and doc["count"] == 0

    def test_guided_keeps_an_explicit_order_ceiling(self, capsys):
        code, doc, _ = run_cli(
            capsys, "bruteforce", "--group", "D(5,3,2)", "--guided", "--max-order", "128"
        )
        assert code == 3
        assert doc["partial"]

    def test_bad_group(self, capsys):
        code, doc, _ = run_cli(capsys, "bruteforce", "--group", "Q8")
        assert code == 2

    def test_guided_needs_a_delta_descriptor(self, capsys):
        # L(512,16,97) is isomorphic to D(9,4,5) but is not D(a,b,c) as written;
        # its bit lengths read (9,4,6), which names another group
        code, doc, _ = run_cli(
            capsys, "bruteforce", "--group", "L(512,16,97)", "--guided", "--max-order", "1"
        )
        assert code == 2
        assert "D(a,b,c)" in doc["error"]


class TestVerifyCommand:
    def test_roundtrip_ok(self, capsys, z5_map_file):
        code, doc, _ = run_cli(capsys, "verify", str(z5_map_file))
        assert code == 0
        assert doc["failures"] == []
        assert doc["balance"]["t"] == 1
        assert doc["embedding"]["genus"] == 1

    def test_engine_map_verifies(self, capsys, delta_map_file):
        code, doc, _ = run_cli(capsys, "verify", str(delta_map_file))
        assert code == 0 and doc["failures"] == []

    def test_tampered_pi_detected(self, capsys, z5_map_file, tmp_path):
        doc = json.loads(z5_map_file.read_text(encoding="utf-8"))
        key = sorted(doc["skew"]["pi"])[1]
        doc["skew"]["pi"][key] = doc["skew"]["pi"][key] % 4 + 1
        bad = tmp_path / "tampered.json"
        bad.write_text(canonical_json(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert any("mismatch" in f for f in out["failures"])

    def test_tampered_phi_detected(self, capsys, delta_map_file, tmp_path):
        doc = json.loads(delta_map_file.read_text(encoding="utf-8"))
        phi = doc["skew"]["phi"]
        # swap two non-generator images: breaks the law with a witness pair
        keys = [k for k in sorted(phi) if phi[k] != k][:2]
        phi[keys[0]], phi[keys[1]] = phi[keys[1]], phi[keys[0]]
        bad = tmp_path / "tampered_phi.json"
        bad.write_text(canonical_json(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(bad))
        assert code == 1 and out["failures"]

    @pytest.mark.parametrize("defect", ["non-bijective", "identity-moving"])
    def test_bad_skew_table_is_a_failed_check(self, capsys, z8_map_doc, tmp_path, defect):
        doc = json.loads(canonical_json(z8_map_doc))
        phi = doc["skew"]["phi"]
        if defect == "non-bijective":
            phi["a^2 b^0"] = phi["a^1 b^0"]
        else:
            phi["a^0 b^0"], phi["a^2 b^0"] = phi["a^2 b^0"], phi["a^0 b^0"]
        bad = tmp_path / "bad_table.json"
        bad.write_text(canonical_json(doc), encoding="utf-8")
        code, out, _ = run_cli(capsys, "verify", str(bad))
        assert code == 1
        assert out["failures"] and out["skew"].startswith("violated at")
        assert "bijection" in out["skew"] or "identity" in out["skew"]
        assert out["embedding"]["vertices"] == 8

    def test_quotient_flag(self, capsys, delta_map_file):
        code, doc, _ = run_cli(
            capsys, "verify", str(delta_map_file), "--quotient", "a^16"
        )
        assert code == 0
        assert doc["quotient"]["group"] == "L(16,8,1)"
        assert doc["quotient"]["valency"] == 16

    def test_malformed_quotient_is_a_usage_error(self, capsys, delta_map_file):
        code, doc, _ = run_cli(capsys, "verify", str(delta_map_file), "--quotient", "a^x")
        assert code == 2
        assert "a^x" in doc["error"]

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, doc, _ = run_cli(capsys, "verify", str(bad))
        assert code == 2

    @pytest.mark.parametrize("argv", [("verify",), ("genus",), ("quotient", "--xi", "a^16")])
    def test_missing_file_is_an_input_error(self, capsys, tmp_path, argv):
        missing = str(tmp_path / "missing.json")
        code, doc, _ = run_cli(capsys, argv[0], missing, *argv[1:])
        assert code == 2 and "missing.json" in doc["error"]


class TestQuotientCommand:
    def test_quotient_map_emitted(self, capsys, delta_map_file):
        code, doc, _ = run_cli(capsys, "quotient", str(delta_map_file), "--xi", "a^16")
        assert code == 0
        assert doc["group"] == "L(16,8,1)"
        assert doc["profile"]["k"] == 3
        # the emitted quotient map re-verifies from its own JSON
        cm, phi, _ = maps.map_from_json_dict(doc["map"])
        assert isinstance(maps.check_skew(cm, phi), maps.SkewMorphism)

    @pytest.mark.parametrize(
        "xi, message", [("a^x", "cannot parse"), ("a^0", "positive power of two")]
    )
    def test_malformed_subgroup_is_a_usage_error(self, capsys, delta_map_file, xi, message):
        code, doc, _ = run_cli(capsys, "quotient", str(delta_map_file), "--xi", xi)
        assert code == 2
        assert message in doc["error"]


class TestGenusCommand:
    def test_z5(self, capsys, z5_map_file):
        code, doc, _ = run_cli(capsys, "genus", str(z5_map_file))
        assert code == 0
        assert (doc["vertices"], doc["edges"], doc["faces"], doc["genus"]) == (5, 10, 5, 1)


class TestInfoCommand:
    def test_group_info(self, capsys):
        code, doc, _ = run_cli(capsys, "info", "--group", "L(16,4,5)")
        assert code == 0
        assert doc["order"] == 64
        assert doc["index2_subgroups"] == ["a2_b", "a_b2", "a2_ab"]

    def test_delta_info(self, capsys):
        code, doc, _ = run_cli(capsys, "info", "--group", "D(7,3,4)")
        assert code == 0
        assert doc["classification"]["existence"] is True

    def test_delta_info_separators(self, capsys):
        semicolon = run_cli(capsys, "info", "--group", "D(7,3;4)")
        assert semicolon[0] == 0 and "classification" in semicolon[1]
        assert run_cli(capsys, "info", "--group", "D(7,3,4)") == semicolon


def last_line_of_python(script: str) -> str:
    """The last line that ``script`` prints in a fresh interpreter on ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_fast_classify_loads_no_oracle_module_and_no_numpy_ma():
    """``classify`` leaves ``rbcm.brute`` unloaded, and its fast level calls
    no ``np.unique``, whose first call imports ``numpy.ma`` in numpy 2."""
    script = (
        "import sys, numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from rbcm.cli import main\n"
        "rc = main(['--workers', '1', 'classify', '--a', '11', '--b', '5', '--c', '6',\n"
        "           '--verify-level', 'fast'])\n"
        "print(rc, 'rbcm.brute' in sys.modules, ('numpy.ma' in sys.modules) == before)\n"
    )
    assert last_line_of_python(script) == "0 False True"


def test_classify_runs_in_one_process():
    """``classify`` starts no worker process at either level, whatever
    ``--workers`` says: no process is reaped and no pool module is loaded."""
    script = (
        "import resource, sys\n"
        "from rbcm.cli import main\n"
        "rcs = [main(['--workers', '2', 'classify', '--a', '7', '--b', '3', '--c', '4',\n"
        "             '--verify-level', level]) for level in ('fast', 'full')]\n"
        "pools = [m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules]\n"
        "print(rcs, pools, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    assert last_line_of_python(script) == "[0, 0] [] 0"


def test_full_classify_loads_no_numpy_ma():
    """The full level (orbit identities, quotient profile and distinctness)
    calls no ``np.unique`` or ``np.setdiff1d`` either."""
    if last_line_of_python("import sys, rbcm.cli\nprint('numpy.ma' in sys.modules)") == "True":
        pytest.skip("importing rbcm alone loads numpy.ma")
    script = (
        "import sys\n"
        "from rbcm.cli import main\n"
        "rc = main(['--workers', '1', 'classify', '--a', '7', '--b', '3', '--c', '4',\n"
        "           '--verify-level', 'full'])\n"
        "print(rc, 'numpy.ma' in sys.modules)\n"
    )
    assert last_line_of_python(script) == "0 False"
