"""Command-line behavior: output shapes, exit codes, golden comparison.

Everything drives ``main(argv)`` directly so exit codes and captured
output are asserted in-process.  Two subprocess tests check the process
level: one runs the ``[project.scripts]`` entry point of ``pyproject.toml``
in a fresh interpreter, the other the installed ``idemlift`` script, and
is skipped where no such script is on PATH.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import idemlift
from idemlift.cli import main

GOLDEN = str(Path(__file__).parent / "golden" / "z200c3.json")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_z12_text(self, capsys):
        code, out, err = run(capsys, "list", "Z(12)")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "E(Z(12)): 4 elements [crt-combined]"
        assert lines[1:] == ["0", "1", "4", "9"]

    def test_z12_json(self, capsys):
        code, out, _ = run(capsys, "list", "--json", "Z(12)")
        assert code == 0
        payload = json.loads(out)
        assert payload["ring"] == "Z(12)"
        assert payload["count"] == 4
        assert payload["members"] == [[0], [1], [4], [9]]

    def test_output_deterministic(self, capsys):
        _, first, _ = run(capsys, "list", "Z(200){C3}")
        _, second, _ = run(capsys, "list", "Z(200){C3}")
        assert first == second

    def test_golden_match(self, capsys):
        code, out, _ = run(capsys, "list", "Z(200){C3}", "--golden", GOLDEN)
        assert code == 0
        assert "golden: match (16 members)" in out

    def test_golden_mismatch(self, capsys, tmp_path):
        with open(GOLDEN, encoding="utf-8") as fh:
            stored = json.load(fh)
        stored["members"][3][0] += 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(stored))
        code, _, err = run(capsys, "list", "Z(200){C3}", "--golden", str(bad))
        assert code == 1
        assert "golden: MISMATCH (1 missing, 1 unexpected)" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "list", "Z(936){C5xC5}")
        assert code == 3
        assert "use 'count' or raise --cap" in err

    def test_cap_override_small(self, capsys):
        code, _, _ = run(capsys, "list", "Z(12)", "--cap", "2")
        assert code == 3

    def test_invalid_cap(self, capsys):
        code, _, err = run(capsys, "list", "Z(12)", "--cap", "0")
        assert code == 2
        assert "--cap must be >= 1" in err


class TestCount:
    def test_large_family_text(self, capsys):
        code, out, _ = run(capsys, "count", "Z(936){C5xC5}")
        assert code == 0
        assert "|E(Z(936){C5xC5})| = 2097152 = 2^21" in out
        assert "primitive count: 21" in out

    def test_large_family_json(self, capsys):
        code, out, _ = run(capsys, "count", "--json", "Z(936){C5xC5}")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 2**21
        assert payload["log2"] == 21
        assert payload["primitive_count"] == 21

    def test_small(self, capsys):
        code, out, _ = run(capsys, "count", "Z(200){C3}")
        assert code == 0
        assert "|E(Z(200){C3})| = 16 = 2^4" in out
        assert "primitive count: 4" in out

    def test_rank2_hat_family_within_budget(self, capsys):
        # C13 x C13 has 14 subgroups of order 13, one per line through 0
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "Z(2){C13xC13}")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "|E(Z(2){C13xC13})| = 32768 = 2^15" in out
        assert elapsed < 5.0


class TestPrimitive:
    def test_z200c3(self, capsys):
        code, out, _ = run(capsys, "primitive", "Z(200){C3}")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "primitive idempotents of Z(200){C3}: 4 elements [crt-combined]"
        )
        assert len(lines) == 5

    def test_json_has_no_members(self, capsys):
        code, out, _ = run(capsys, "primitive", "--json", "Z(200){C3}")
        assert code == 0
        payload = json.loads(out)
        assert "members" not in payload
        assert len(payload["primitive"]) == 4

    def test_zero_ring_empty_family(self, capsys):
        # 0 = 1 there, so the empty primitive family is complete and certified
        code, out, _ = run(capsys, "primitive", "Z(1)")
        assert code == 0
        assert "0 elements" in out

    def test_uncertified_family_rejected(self, capsys, monkeypatch):
        import dataclasses

        import idemlift.cli as cli
        from idemlift.catalog import enumerate_idempotents as real

        def uncertified(ring, list_cap, brute_cap):
            fam = real(ring, list_cap, brute_cap)
            return dataclasses.replace(fam, primitive=(), orthogonal_primitive=False)

        monkeypatch.setattr(cli, "enumerate_idempotents", uncertified)
        code, _, err = run(capsys, "primitive", "Z(12)")
        assert code == 4
        assert "no certified primitive family" in err


class TestLift:
    def test_gaussian(self, capsys):
        code, out, _ = run(capsys, "lift", "Z(25)[i]", "3 + i")
        assert code == 0
        assert "tower:    5^1" in out
        assert "lifted:   13 + 16*i" in out
        assert "verified: true" in out

    def test_group_ring_standard_chain(self, capsys):
        sigma = " + ".join(["3*e"] + [f"3*g^{k}" if k > 1 else "3*g" for k in range(1, 7)])
        code, out, _ = run(capsys, "lift", "Z(125){C7}", sigma)
        assert code == 0
        assert "tower:    5^2" in out
        assert "lifted:   " + " + ".join(
            ["18*e"] + [f"18*g^{k}" if k > 1 else "18*g" for k in range(1, 7)]
        ) in out

    def test_tower_override(self, capsys):
        code, out, _ = run(capsys, "lift", "Z(8){C3}", "0*e + g + g^2", "--tower", "2", "3")
        assert code == 0
        assert "tower:    2^3" in out
        assert "lifted:   6*e + 5*g + 5*g^2" in out

    @pytest.mark.parametrize("tower", [("0", "3"), ("2", "-1")])
    def test_invalid_tower_text(self, capsys, tower):
        code, out, err = run(capsys, "lift", "Z(12)", "5", "--tower", *tower)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --tower") and "Traceback" not in err

    @pytest.mark.parametrize("tower", [("0", "3"), ("2", "-1")])
    def test_invalid_tower_json(self, capsys, tower):
        code, out, _ = run(capsys, "lift", "--json", "Z(12)", "5", "--tower", *tower)
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == 2
        assert payload["error"]["type"] == "ParseError"

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "lift", "--json", "Z(25)[i]", "3 + i")
        assert code == 0
        payload = json.loads(out)
        assert payload["lifted"] == [13, 16]
        assert payload["verified"] is True


class TestVerify:
    def test_single_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "Z(12)", "4")
        assert code == 0
        assert "idempotent: yes  4" in out

    def test_single_failure(self, capsys):
        code, out, err = run(capsys, "verify", "Z(12)", "5")
        assert code == 5
        assert "idempotent: NO  5" in out
        assert "not idempotent: 5" in err

    def test_family_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "Z(12)", "4", "9")
        assert code == 0
        assert "orthogonal: yes" in out
        assert "sums to one: yes" in out

    def test_family_failure(self, capsys):
        code, out, err = run(capsys, "verify", "Z(12)", "1", "4")
        assert code == 5
        assert "orthogonal: NO" in out
        assert "pairwise orthogonality" in err

    def test_json_verified_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--json", "Z(12)", "4", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert payload["idempotent"] == [True, True]
        code, out, _ = run(capsys, "verify", "--json", "Z(12)", "1", "4")
        assert code == 5
        payload = json.loads(out)
        assert payload["verified"] is False


class TestOracle:
    def test_matches_list(self, capsys):
        _, oracle_out, _ = run(capsys, "oracle", "--json", "Z(8){C3}")
        _, list_out, _ = run(capsys, "list", "--json", "Z(8){C3}")
        oracle_members = json.loads(oracle_out)["members"]
        list_members = json.loads(list_out)["members"]
        assert oracle_members == list_members
        assert json.loads(oracle_out)["provenance"] == "brute-force"

    def test_cap(self, capsys):
        code, _, _ = run(capsys, "oracle", "Z(8){C3}", "--cap", "100")
        assert code == 3


class TestErrors:
    def test_parse_error_text(self, capsys):
        code, _, err = run(capsys, "list", "Z(0)")
        assert code == 2
        assert err.startswith("error: ")

    def test_parse_error_json(self, capsys):
        code, out, _ = run(capsys, "count", "--json", "Z(")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["code"] == 2
        assert payload["error"]["type"] == "ParseError"

    def test_unsupported(self, capsys):
        code, _, err = run(capsys, "list", "Z(2)[x]/(1 + x + x^2){C3}")
        assert code == 4
        assert "error: " in err

    def test_element_parse_error(self, capsys):
        code, _, _ = run(capsys, "verify", "Z(12)", "x + 1")
        assert code == 2


def test_declared_entry_point(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, func = scripts["idemlift"].split(":")
    # the child must import the same idemlift as this suite, wherever it runs
    env = dict(os.environ)
    src = str(Path(idemlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "count", "Z(200){C3}"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "= 2^4" in proc.stdout


@pytest.mark.skipif(
    shutil.which("idemlift") is None,
    reason="console script 'idemlift' not on PATH (package not installed)",
)
def test_installed_script():
    exe = shutil.which("idemlift")
    assert exe, "console script 'idemlift' not on PATH"
    proc = subprocess.run(
        [exe, "count", "Z(200){C3}"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "= 2^4" in proc.stdout
