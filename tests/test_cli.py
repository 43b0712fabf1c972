"""Tests for the command-line interface: exit codes, JSON contracts, determinism."""

import importlib
import json

import pytest

from rbcm import maps
from rbcm.cli import EXIT_INTERNAL, EXIT_VERIFY_FAILED, main
from rbcm.classify import InternalInconsistency, default_workers, realize
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
    cm = maps.CayleyMap(Z5, [Z5.el(v, 0) for v in (1, 2, 4, 3)])
    skew = maps.is_regular(cm)
    path = tmp_path_factory.mktemp("maps") / "z5.json"
    path.write_text(canonical_json(map_to_json_dict(cm, skew)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def delta_map_file(tmp_path_factory):
    r = realize(7, 3, 4, 0)
    path = tmp_path_factory.mktemp("maps") / "delta734.json"
    path.write_text(
        canonical_json(map_to_json_dict(r.cmap, r.skew)), encoding="utf-8"
    )
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

    def test_bad_workers_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RBCM_WORKERS", "abc")
        code, doc, _ = run_cli(capsys, "classify", "--a", "7", "--b", "3", "--c", "4")
        assert code == 2
        assert "RBCM_WORKERS" in doc["error"]
        with pytest.raises(ValueError, match="RBCM_WORKERS"):
            default_workers()

    @pytest.mark.parametrize(
        "error, code",
        [(VerificationError("tampered check"), EXIT_VERIFY_FAILED),
         (InternalInconsistency("broken identity"), EXIT_INTERNAL)],
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

    def test_deterministic_output(self, capsys):
        argv = ("classify", "--a", "7", "--b", "3", "--c", "4", "--verify-level", "fast")
        code1, doc1, _ = run_cli(capsys, *argv)
        code2, doc2, _ = run_cli(capsys, *argv)
        assert (code1, doc1) == (code2, doc2)
        assert canonical_json(doc1) == canonical_json(doc2)


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
        assert code in (1, 2)  # law violation, or no longer a valid table

    def test_quotient_flag(self, capsys, delta_map_file):
        code, doc, _ = run_cli(
            capsys, "verify", str(delta_map_file), "--quotient", "a^16"
        )
        assert code == 0
        assert doc["quotient"]["group"] == "L(16,8,1)"
        assert doc["quotient"]["valency"] == 16

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, doc, _ = run_cli(capsys, "verify", str(bad))
        assert code == 2


class TestQuotientCommand:
    def test_quotient_map_emitted(self, capsys, delta_map_file):
        code, doc, _ = run_cli(capsys, "quotient", str(delta_map_file), "--xi", "a^16")
        assert code == 0
        assert doc["group"] == "L(16,8,1)"
        assert doc["profile"]["k"] == 3
        # the emitted quotient map re-verifies from its own JSON
        cm, phi, _ = maps.map_from_json_dict(doc["map"])
        assert isinstance(maps.check_skew(cm, phi), maps.SkewMorphism)


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
