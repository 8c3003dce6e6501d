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
from idemlift.parsing import build_ring

GOLDEN = str(Path(__file__).parent / "golden" / "z200c3.json")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def lift_calls(monkeypatch):
    """Elements that ``catalog._combine`` lifts while the test runs: it reads
    each through ``Ring.embed`` before raising it to its prime-power
    exponent."""
    from idemlift.group_rings import Ring

    calls = []
    real = Ring.embed

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(Ring, "embed", counting)
    return calls


@pytest.fixture
def products(monkeypatch):
    """One entry per ring product (``Ring.mul``) made while the test runs."""
    from idemlift.group_rings import Ring

    calls = []
    real = Ring.mul
    monkeypatch.setattr(Ring, "mul", lambda self, a, b: calls.append(1) or real(self, a, b))
    return calls


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

    @pytest.mark.parametrize("command", ["list", "oracle"])
    def test_json_golden_is_one_document(self, capsys, tmp_path, command):
        # the comparison goes into the document, so all of stdout parses
        ring = "Z(2){C3}"  # within the oracle's scan cap
        _, out, _ = run(capsys, "list", ring, "--json")
        members = json.loads(out)["members"]
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"members": members}))
        code, out, err = run(capsys, command, ring, "--json", "--golden", str(table))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["golden"] == {"match": True, "missing": [], "unexpected": []}
        assert doc["members"] == members
        # one member replaced, one added: both lists come out sorted
        wrong = [[1, 1, 0], [0, 1, 0]] + members[1:]
        table.write_text(json.dumps({"members": wrong}))
        code, out, err = run(capsys, command, ring, "--json", "--golden", str(table))
        assert (code, err) == (1, "")
        assert json.loads(out)["golden"] == {
            "match": False, "missing": [[0, 1, 0], [1, 1, 0]], "unexpected": [members[0]],
        }

    @pytest.mark.parametrize("command", ["list", "oracle"])
    @pytest.mark.parametrize(
        "table",
        ["missing", "nope", '{"x": 1}', '{"members": [[1, 2], 3]}', "directory"],
    )
    def test_unreadable_golden_refused_before_enumerating(
        self, capsys, monkeypatch, tmp_path, command, table
    ):
        from idemlift import cli

        def forbidden(*args):
            raise AssertionError("enumerated before the golden table was read")

        monkeypatch.setattr(cli, "enumerate_idempotents", forbidden)
        monkeypatch.setattr(cli, "brute_force_idempotents", forbidden)
        if table == "missing":
            path = tmp_path / "missing.json"
        elif table == "directory":
            path = tmp_path
        else:
            path = tmp_path / "table.json"
            path.write_text(table)
        code, out, err = run(capsys, command, "Z(6)", "--golden", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "golden table" in err
        code, out, err = run(capsys, command, "Z(6)", "--json", "--golden", str(path))
        assert (code, err) == (2, "")
        assert json.loads(out)["error"]["type"] == "ParseError"

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "list", "Z(936){C5xC5}")
        assert code == 3
        assert "use 'count' or raise --cap" in err

    def test_cap_exceeded_lifts_no_members(self, capsys, lift_calls):
        # 2^18 members exceed the cap: only the 18 primitives are lifted
        code, out, err = run(capsys, "list", "Z(1000){C31}")
        assert code == 3
        assert out == ""
        assert err == (
            "error: |E| = 262144 exceeds the listing cap 65536; "
            "use 'count' or raise --cap\n"
        )
        assert len(lift_calls) == 18

    @pytest.mark.parametrize("ring, lifts", [("Z(200){C3}", 4), ("Z(2520){C11}", 10)])
    def test_lifts_one_element_per_primitive(self, capsys, lift_calls, ring, lifts):
        # the listing is the subset sums of the lifted primitives: no member is lifted
        code, out, _ = run(capsys, "list", ring)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2**lifts
        assert len(lift_calls) == lifts

    @pytest.mark.parametrize(
        "argv, members, k",
        [(["list", "Z(4095){C4}"], 16384, 14), (["list", "Z(60){C3xC3}", "--json"], 2048, 11)],
    )
    def test_one_unpack_and_one_squaring_per_member(self, capsys, monkeypatch, argv, members, k):
        # members are sorted by int keys that hold them, and rendered from
        # slot columns: a listed member is unpacked once, by unpack_many, and
        # never by a per-member unpack (those are the k primitives'
        # embeddings and JSON).  The block pass squares every listed member
        # once, in listing order, and nothing squares one again.
        from idemlift import catalog
        from idemlift.group_rings import Ring

        unpacks, rows, squared, again = [], [], [], []
        real_unpack, real_many = Ring.unpack, Ring.unpack_many
        real_block, real_verify = Ring.square_mismatch, catalog.verify_idempotent

        def many(self, values):
            for row in real_many(self, values):
                rows.append(row)
                yield row

        monkeypatch.setattr(
            Ring, "unpack", lambda self, v: unpacks.append(1) or real_unpack(self, v)
        )
        monkeypatch.setattr(Ring, "unpack_many", many)
        monkeypatch.setattr(
            Ring, "square_mismatch", lambda self, v: squared.extend(v) or real_block(self, v)
        )
        monkeypatch.setattr(
            catalog, "verify_idempotent", lambda x: again.append(x) or real_verify(x)
        )
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert len(unpacks) <= 2 * k
        assert len(rows) == members
        ring = build_ring(argv[1])
        if "--json" in argv:
            assert [list(ring.unpack(v)) for v in squared] == json.loads(out)["members"]
        else:
            assert [ring.row_text(ring.unpack(v)) for v in squared] == out.splitlines()[1:]
        assert len(squared) == members and again == []

    def test_cap_override_small(self, capsys):
        code, _, _ = run(capsys, "list", "Z(12)", "--cap", "2")
        assert code == 3

    def test_invalid_cap(self, capsys):
        code, _, err = run(capsys, "list", "Z(12)", "--cap", "0")
        assert code == 2
        assert "--cap must be >= 1" in err

    def test_extension_field_group_ring(self, capsys):
        # F_4 C_3 has three components: the listing is the oracle's 8 members
        code, out, err = run(capsys, "list", "Z(2)[x]/(1 + x + x^2){C3}")
        assert code == 0 and err == ""
        _, oracle_out, _ = run(capsys, "oracle", "Z(2)[x]/(1 + x + x^2){C3}")
        lines = out.splitlines()
        assert lines[0] == "E(Z(2)[x]/(1 + x + x^2){C3}): 8 elements [factorization]"
        assert lines[1:] == oracle_out.splitlines()[1:]

    def test_non_semisimple_prime_field(self, capsys):
        # formerly the oracle's job: the header names the provider that answered
        code, out, _ = run(capsys, "list", "Z(2){C2xC2}")
        assert code == 0
        assert out.splitlines()[0] == "E(Z(2){C2xC2}): 2 elements [factorization]"


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

    def test_c29xc29_within_budget(self, capsys):
        # F_2(C29xC29): 1 + 840/28 = 31 components, certified by dense
        # products of order 841
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "Z(2){C29xC29}")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == "|E(Z(2){C29xC29})| = 2147483648 = 2^31\nprimitive count: 31\n"
        assert elapsed < 10.0

    def test_c53xc53_within_budget(self, capsys):
        # F_2(C53xC53): 1 + 2808/52 = 55 hat members of order 2809, certified
        # in 2 * 55 - 1 products
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "Z(2){C53xC53}")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == "|E(Z(2){C53xC53})| = 36028797018963968 = 2^55\nprimitive count: 55\n"
        assert elapsed < 4.0

    def test_frobenius_at_the_dimension_cap_within_budget(self, capsys):
        # F_3(C2^6) is split (3 = 1 mod 2): B is all of A, 64 components,
        # each piece split by products in the ring's own kernel
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "Z(3){C2xC2xC2xC2xC2xC2}")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == (
            "|E(Z(3){C2xC2xC2xC2xC2xC2})| = 18446744073709551616 = 2^64\n"
            "primitive count: 64\n"
        )
        assert elapsed < 1.5

    @pytest.mark.parametrize(
        "p", [100003, 1000000007, 4611686018427388039]  # the last is 2^62 + 135
    )
    def test_large_prime_cyclic_within_budget(self, capsys, p):
        # F_p C7 has one component per orbit of g -> g^p: 1 + 6 / ord_7(p)
        order = next(k for k in range(1, 7) if pow(p, k, 7) == 1)
        log2 = 1 + 6 // order
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", f"Z({p}){{C7}}")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == (
            f"|E(Z({p}){{C7}})| = {2**log2} = 2^{log2}\nprimitive count: {log2}\n"
        )
        assert elapsed < 5.0

    def test_rank2_without_hat_family(self, capsys):
        # F_2(C7xC7) has 1 + 48/3 = 17 components, F_5(C7xC7) 1 + 48/6 = 9
        code, out, _ = run(capsys, "count", "Z(1000){C7xC7}")
        assert code == 0
        assert out == "|E(Z(1000){C7xC7})| = 67108864 = 2^26\nprimitive count: 26\n"

    def test_extension_field_group_ring(self, capsys):
        # F_8 C_3: 8 = 2 mod 3, so the orbits {e} and {g, g^2}
        code, out, _ = run(capsys, "count", "Z(8)[x]/(1 + x + x^3){C3}")
        assert code == 0
        assert "= 4 = 2^2" in out

    def test_dimension_cap(self, capsys):
        code, out, _ = run(capsys, "count", "Z(2){C64}")
        assert code == 0
        assert "= 2 = 2^1" in out
        code, _, err = run(capsys, "count", "Z(2){C65}")
        assert code == 3
        assert "capped at dimension 64" in err

    @pytest.mark.parametrize(
        "ring",
        ["Z(2){C1009}", "Z(2){" + "x".join(["C3"] * 10) + "}", "Z(2){C100003}",
         "Z(2)[x]/(1 + x^1024){C256xC256}"],
    )
    def test_over_cap_exits_fast(self, capsys, ring):
        # C1009 and C3^10 are over the Frobenius dimension cap, C100003 over
        # the group-order cap, and the last ring (dimension 2^26) over the
        # ring dimension cap
        start = time.perf_counter()
        code, _, err = run(capsys, "count", ring)
        assert code == 3 and err.startswith("error: ")
        assert time.perf_counter() - start < 2.0

    def test_ring_dimension_cap(self, capsys):
        # 16 * 2^16 = 2^20 is at the cap: the ring builds, so the literal fails (exit 2)
        code, _, _ = run(capsys, "verify", "Z(2)[x]/(1 + x^16){C256xC256}", "y")
        assert code == 2
        code, _, err = run(capsys, "verify", "Z(2)[x]/(1 + x^17){C256xC256}", "y")
        assert code == 3
        assert err == "error: ring dimension 1114112 exceeds cap 1048576\n"

    def test_factor_degree_cap(self, capsys):
        # 1 + x^64 = (1 + x)^64 over F_2: the largest degree Berlekamp takes
        code, out, err = run(capsys, "count", "Z(2)[x]/(1 + x^64)")
        assert (code, err) == (0, "")
        assert out == "|E(Z(2)[x]/(1 + x^64))| = 2 = 2^1\nprimitive count: 1\n"
        code, out, err = run(capsys, "count", "Z(2)[x]/(1 + x^65)")
        assert (code, out) == (3, "")
        assert err == "error: degree 65 exceeds cap 64\n"

    def test_square_of_31_bit_prime_within_budget(self, capsys):
        # (2^31 - 1)^2: a prime power, so only the one orbit of the trivial group
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "Z(4611686014132420609)")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out == "|E(Z(4611686014132420609))| = 2 = 2^1\nprimitive count: 1\n"
        assert elapsed < 5.0

    def test_field_factors_build_no_ring(self, capsys, monkeypatch):
        # 1008 + x^7 splits into seven linear factors over F_1009; each factor
        # ring is a field whose one primitive is the carrier's 1, so the glue
        # certifies one family in one layout
        from idemlift import catalog
        from idemlift.group_rings import _layout

        builds = []
        real = catalog._build_family
        monkeypatch.setattr(
            catalog, "_build_family", lambda *a, **k: builds.append(1) or real(*a, **k)
        )
        _layout.cache_clear()
        code, out, _ = run(capsys, "count", "Z(1009)[x]/(1008+x^7)")
        assert code == 0
        assert out == "|E(Z(1009)[x]/(1008 + x^7))| = 128 = 2^7\nprimitive count: 7\n"
        assert len(builds) == 1
        assert _layout.cache_info().misses == 1

    def test_unit_components_lift_without_products(self, capsys, products):
        # each field factor's primitive is its own 1, so its lift is the
        # weight w itself: no w * embed(1)^alpha for any of the seven
        code, out, err = run(capsys, "count", "Z(1009)[x]/(1008+x^7)")
        assert (code, err) == (0, "")
        assert out == "|E(Z(1009)[x]/(1008 + x^7))| = 128 = 2^7\nprimitive count: 7\n"
        assert len(products) == 13

    def test_hat_size_checked_before_subgroups(self, capsys):
        # C251 x C251 gives 253 hat candidates, but F_2 C251xC251 has 1261
        # components (ord_251(2) = 50): the hat route is refused before it
        # closes a subgroup for each of the 63,000 elements of order 251,
        # and the Frobenius route is over its dimension cap
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "Z(2){C251xC251}")
        assert (code, out) == (3, "")
        assert err == "error: Frobenius splitting capped at dimension 64, got 63001\n"
        assert time.perf_counter() - start < 5.0

    def test_linear_factors_share_one_group_family(self, capsys, monkeypatch):
        # x^2 + 1 has two linear factors mod 13 and mod 17: E(F_p C3) is found
        # once per prime.  Over F_13 the hat route is refused (13 = 1 mod 3)
        # and the splitter answers; over F_17 the hat route answers.
        from idemlift import catalog

        calls = []
        for name in ("_hat_route", "_frobenius_route", "_poly_route"):
            real = getattr(catalog, name)
            monkeypatch.setattr(
                catalog, name,
                lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k),
            )
        code, out, _ = run(capsys, "count", "Z(221)[i]{C3}")
        assert code == 0
        assert out == "|E(Z(221)[i]{C3})| = 1024 = 2^10\nprimitive count: 10\n"
        assert sorted(calls) == sorted(
            ["_poly_route"] * 2 + ["_hat_route"] * 2 + ["_frobenius_route"]
        )

    def test_one_certificate_bounds_the_products(self, capsys, products):
        # Z(936) has three primes: the answer's 21 primitives are certified
        # once, in 2 * 21 - 1 products, and no base family is certified again
        # (certifying each prime's family too made 129 products)
        code, out, _ = run(capsys, "count", "Z(936){C5xC5}")
        assert code == 0
        assert out == "|E(Z(936){C5xC5})| = 2097152 = 2^21\nprimitive count: 21\n"
        assert len(products) <= 90

    @pytest.mark.parametrize(
        "ring, log2, count",
        [("Z(242){C7}", 6, 52), ("Z(242){C9}", 6, 66), ("Z(99){C4}", 6, 53), ("Z(99){C7}", 5, 33)],
    )
    def test_unsplit_ring_split_by_the_basis_alone(self, capsys, products, ring, log2, count):
        # F_11 C4, C7 and C9 have k = 3 components each and are not split:
        # the basis families alone refine 1, with no combination of the basis
        # first (54, 57, 54 and 35 products while one was tried for p > k^2)
        out = f"|E({ring})| = {2**log2} = 2^{log2}\nprimitive count: {log2}\n"
        assert run(capsys, "count", ring) == (0, out, "")
        assert len(products) == count

    @pytest.mark.parametrize(
        "ring, log2, count",
        [("Z(1009){C7}", 7, 13), ("Z(193){C64}", 64, 127), ("Z(1049){C8}", 8, 15)],
    )
    def test_split_ring_makes_only_the_certificate_products(self, capsys, products, ring, log2, count):
        # exp(G) divides p - 1: the character idempotents are built with
        # products in F_p alone, so the ring products are the certificate's
        # 2k - 1 (295, 6,087 and 143 when these rings were split through
        # the Frobenius-fixed subalgebra)
        out = f"|E({ring})| = {2**log2} = 2^{log2}\nprimitive count: {log2}\n"
        assert run(capsys, "count", ring) == (0, out, "")
        assert len(products) == count == 2 * log2 - 1

    def test_unadmitted_splitter_unchanged(self, capsys, products):
        # F_3 C16 and F_11 C16 have 7 components each, and neither is split:
        # the basis families alone split them, as they always have
        out = "|E(Z(99){C16})| = 16384 = 2^14\nprimitive count: 14\n"
        assert run(capsys, "count", "Z(99){C16}") == (0, out, "")
        assert len(products) == 122

    def test_frobenius_matrix_built_in_the_list_kernel(self, capsys, products):
        # the F_{1013^d} C3 splitter's Frob - I, for the factors of degree
        # d = 3 and 5 (1013 = 2 mod 3, so neither F_{1013^d} C3 is split),
        # comes from one x^p of the list kernel, not from d ring powers
        code, out, _ = run(capsys, "count", "Z(1013)[x]/(3 + 2*x + x^5 + x^8){C3}")
        assert code == 0
        assert out == ("|E(Z(1013)[x]/(3 + 2*x + x^5 + x^8){C3})| = 16 = 2^4\n"
                       "primitive count: 4\n")
        assert len(products) <= 47

    @pytest.mark.parametrize(
        "ring, code, counts",
        [("Z(2){C7}", 0, 1), ("Z(1000){C7xC7}", 0, 2), ("Z(2){" + "x".join(["C3"] * 10) + "}", 3, 0)],
    )
    def test_component_count_computed_once_per_prime(self, capsys, monkeypatch, ring, code, counts):
        # a refused hat route leaves the ring's cached component count to
        # the splitter; over F_5 the hat family of C7xC7 certifies, over F_2
        # it is refused; C3^10 over F_2 is refused by both routes before
        # either needs the count
        from idemlift import group_rings

        calls = []
        real = group_rings.frobenius_orbit_count
        monkeypatch.setattr(group_rings, "frobenius_orbit_count",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        got, _, err = run(capsys, "count", ring)
        assert (got, err == "", len(calls)) == (code, code == 0, counts)

    def test_component_count_visits_no_group_element(self, capsys, monkeypatch):
        # the certificate's count is the closed form: while it runs, no group
        # element is multiplied, powered or indexed.  Over F_2 the splitter's
        # basis walks the orbits of C7xC7 itself, outside the count.
        from idemlift import group_rings
        from idemlift.groups import AbelianGroup

        counting, visits = [False], []
        for name in ("mul", "power", "exponents", "index"):
            real = getattr(AbelianGroup, name)
            monkeypatch.setattr(AbelianGroup, name, lambda self, *a, _name=name, _real=real:
                                (counting[0] and visits.append(_name)) or _real(self, *a))
        real_count = group_rings.frobenius_orbit_count

        def count(*args, **kwargs):
            counting[0] = True
            try:
                return real_count(*args, **kwargs)
            finally:
                counting[0] = False

        monkeypatch.setattr(group_rings, "frobenius_orbit_count", count)
        code, out, err = run(capsys, "count", "Z(1000){C7xC7}")
        assert (code, err, visits) == (0, "", [])
        assert out == "|E(Z(1000){C7xC7})| = 67108864 = 2^26\nprimitive count: 26\n"

    def test_fixed_space_matrix_only_over_extension_bases(self, capsys, monkeypatch):
        # over Z_p the splitter's basis is the orbit sums, and no Frob - I is
        # built; F_{1013^d} C3 for d = 3 and 5, which are not split, and
        # Berlekamp still build theirs
        from idemlift import catalog, polynomials

        calls = []
        for module in (catalog, polynomials):
            real = module.frobenius_fixed_basis
            monkeypatch.setattr(module, "frobenius_fixed_basis",
                                lambda *a, _name=module.__name__, _real=real:
                                calls.append(_name) or _real(*a))
        code, _, err = run(capsys, "count", "Z(99){C16}")
        assert (code, err, calls) == (0, "", [])
        code, _, err = run(capsys, "count", "Z(1013)[x]/(3 + 2*x + x^5 + x^8){C3}")
        assert (code, err) == (0, "")
        assert set(calls) == {"idemlift.catalog", "idemlift.polynomials"}
        calls.clear()
        code, _, err = run(capsys, "count", "Z(3)[i]")  # Berlekamp alone: x^2 + 1 is irreducible
        assert (code, err, set(calls)) == (0, "", {"idemlift.polynomials"})


class TestPrimitive:
    def test_z200c3(self, capsys):
        code, out, _ = run(capsys, "primitive", "Z(200){C3}")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "primitive idempotents of Z(200){C3}: 4 elements [crt-combined]"
        )
        assert len(lines) == 5

    def test_lifts_only_the_primitives(self, capsys, lift_calls):
        from idemlift.catalog import enumerate_idempotents
        from idemlift.parsing import build_ring

        ring = build_ring("Z(1000){C31}")
        expected = enumerate_idempotents(ring).primitive
        lift_calls.clear()
        code, out, _ = run(capsys, "primitive", "Z(1000){C31}")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "primitive idempotents of Z(1000){C31}: 18 elements [crt-combined]"
        )
        assert lines[1:] == [ring.element_text(x) for x in expected]
        assert len(lift_calls) == 18

    @pytest.mark.parametrize("cap, complete", [("16", True), ("15", False)])
    def test_json_complete_at_the_cap_boundary(self, capsys, lift_calls, cap, complete):
        # |E| = 16: "complete" says whether `list --cap` would list E,
        # and the four primitives are all that is lifted either way
        code, out, _ = run(capsys, "primitive", "Z(200){C3}", "--json", "--cap", cap)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 16
        assert payload["complete"] is complete
        assert "members" not in payload
        assert len(lift_calls) == 4

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

    # K is capped at 64 (no standard chain for m < 2^63 has more than 61
    # steps) and S at 2^63 - 1, before any chain is built
    @pytest.mark.parametrize("tower", [(str(2**63 - 2), "1"), ("2", "64")])
    def test_tower_at_bounds_accepted(self, capsys, tower):
        code, out, _ = run(capsys, "lift", "Z(4)", "3", "--tower", *tower)
        assert code == 0
        assert "lifted:   1" in out and "verified: true" in out
        code, out, _ = run(capsys, "lift", "--json", "Z(4)", "3", "--tower", *tower)
        assert code == 0
        payload = json.loads(out)
        assert payload["lifted"] == [1] and payload["verified"] is True

    @pytest.mark.parametrize("tower", [(str(2**63), "1"), ("2", "65"), ("2", "3000000")])
    def test_tower_over_bounds_refused(self, capsys, tower):
        code, out, err = run(capsys, "lift", "Z(4)", "3", "--tower", *tower)
        assert code == 3
        assert out == ""
        assert err.startswith("error: --tower") and "Traceback" not in err
        code, out, _ = run(capsys, "lift", "--json", "Z(4)", "3", "--tower", *tower)
        assert code == 3
        payload = json.loads(out)
        assert payload["error"]["code"] == 3
        assert payload["error"]["type"] == "SizeLimitError"

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

    def test_pair_cap_refuses_before_any_pair(self, capsys, products):
        # 2 is not idempotent in Z(6), so the family is checked pair by pair:
        # 64 elements (2,016 pairs) are checked, 65 refused before any pair,
        # after the 65 squarings
        code, out, err = run(capsys, "verify", "Z(6)", "2", *["0"] * 63)
        assert code == 5 and "orthogonal: yes\nsums to one: NO\n" in out
        assert err == "error: failed checks: not idempotent: 2, sum equal to 1\n"
        assert len(products) == 64 + 64 * 63 // 2
        products.clear()
        code, out, err = run(capsys, "verify", "Z(6)", "2", *["0"] * 64)
        assert (code, out) == (3, "")
        assert err == ("error: verify checks every pair of a family with a non-idempotent "
                       "element, at most 64 elements; got 65\n")
        assert len(products) <= 65

    def test_each_element_squared_once(self, capsys, products):
        # k squarings and k - 1 products against the running sum: the CLI
        # reads the family check's own idempotency flags
        code, out, _ = run(capsys, "verify", "Z(6)", "1", "0", "0", "0")
        assert code == 0 and out.endswith("orthogonal: yes\nsums to one: yes\n")
        assert len(products) == 7
        products.clear()
        code, out, _ = run(capsys, "verify", "Z(6)", "1", *["0"] * 127)
        assert code == 0 and out.endswith("orthogonal: yes\nsums to one: yes\n")
        assert len(products) == 255

    def test_idempotent_family_has_no_pair_cap(self, capsys):
        code, out, err = run(capsys, "verify", "Z(6)", "1", *["0"] * 127)
        assert (code, err) == (0, "")
        assert out.count("idempotent: yes") == 128
        assert out.endswith("orthogonal: yes\nsums to one: yes\n")

    def test_thousand_digit_modulus_within_budget(self, capsys):
        # about the largest Z(m) the 1,024-byte input cap admits: its one
        # slot's layout, reduction program included, is built in bounded time
        ring = f"Z({10**999 + 7})"
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", ring, "1")
        elapsed = time.perf_counter() - start
        assert (code, out, err) == (0, f"ring: {ring}\nidempotent: yes  1\n", "")
        assert elapsed < 5.0


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

    def test_huge_ring_exits_3(self, capsys):
        code, _, err = run(capsys, "oracle", "Z(2){C20000}")
        assert code == 3
        assert err == "error: ring has 2^20000 elements, above the scan cap 1048576\n"

    def test_scan_beyond_int64_exits_3(self, capsys):
        # the scan indexes and multiplies in int64: a larger cap is not honoured
        m = "18446744073709551557"  # 2^64 - 59
        code, out, err = run(capsys, "oracle", f"Z({m})", "--cap", m)
        assert (code, out) == (3, "")
        assert err == f"error: ring has {m}^1 elements, above the scan cap {2**63 - 1}\n"


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

    def test_element_parse_error(self, capsys):
        code, _, _ = run(capsys, "verify", "Z(12)", "x + 1")
        assert code == 2

    def test_failed_factorizer_check_exits_5(self, capsys, monkeypatch):
        # a factor split out twice fails the factorizer's "does not divide"
        # check, which reaches the user as one mapped error line
        import idemlift.polynomials as polynomials

        real = polynomials._split_squarefree
        monkeypatch.setattr(polynomials, "_split_squarefree", lambda g, p: real(g, p)[:1] + real(g, p))
        code, out, err = run(capsys, "count", "Z(5)[x]/(4 + x^2)")
        assert code == 5
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "does not divide" in err and "Traceback" not in err

    def test_seed_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "Z(12)", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "Z(12)", "--golden", "nope"],
            ["primitive", "Z(12)", "--golden", "nope"],
            ["lift", "Z(12)", "4", "--golden", "nope"],
            ["verify", "Z(12)", "4", "--golden", "nope"],
            ["lift", "Z(12)", "4", "--cap", "0"],
            ["verify", "Z(12)", "4", "--cap", "0"],
        ],
        ids=" ".join,
    )
    def test_flags_a_command_does_not_read_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestProcess:
    """One parser per process, and what a process sees of the package."""

    ARGVS = [
        ["count", "Z(200){C3}"],
        ["list", "--json", "Z(12){C2}"],
        ["lift", "Z(8){C3}", "3*e + 2*g", "--tower", "2", "3"],
        ["count", "Z(12)", "--seed", "1"],  # argparse error, exit 2
        ["lift", "Z(12)", "4", "--cap", "3"],  # lift takes no --cap: exit 2
        ["--help"],
        ["verify", "Z(12)", "4", "9"],
        ["primitive", "--json", "Z(2){C3xC3}"],
    ]

    @staticmethod
    def _call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_repeated_main_matches_fresh_parser(self, capsys):
        from idemlift import cli

        fresh = []
        for argv in self.ARGVS:
            cli._build_parser.cache_clear()
            fresh.append(self._call(capsys, argv))
        assert [code for code, _, _ in fresh] == [0, 0, 0, 2, 2, 0, 0, 0]
        parser = cli._build_parser()
        for _ in range(2):
            for argv, want in zip(self.ARGVS, fresh):
                assert self._call(capsys, argv) == want, argv
            for argv, want in zip(reversed(self.ARGVS), reversed(fresh)):
                assert self._call(capsys, argv) == want, argv
        assert cli._build_parser() is parser

    def test_numpy_loaded_only_by_the_oracle(self):
        code = (
            "import sys\n"
            "import idemlift.cli\n"
            "assert 'numpy' not in sys.modules, 'import'\n"
            "assert idemlift.cli.main(['count', 'Z(200){C3}']) == 0\n"
            "assert 'numpy' not in sys.modules, 'count'\n"
            "assert idemlift.cli.main(['oracle', 'Z(2){C2}']) == 0\n"
            "assert 'numpy' in sys.modules\n"
        )
        proc = _child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert "|E(Z(200){C3})| = 16 = 2^4" in proc.stdout
        assert "E(Z(2){C2}): 2 elements" in proc.stdout

    def test_cli_loads_no_introspection_modules(self):
        # measured against the child's own start set, since `site` may
        # preload some of these modules before any idemlift code runs
        code = (
            "import sys\n"
            "start = set(sys.modules)\n"
            "from idemlift.cli import main\n"
            "for argv in (['count', 'Z(200){C3}'], ['list', 'Z(200){C3}'],\n"
            "             ['lift', 'Z(25)[i]', '3 + i'], ['verify', 'Z(6)', '3']):\n"
            "    assert main(argv) == 0, argv\n"
            "watched = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'} - start\n"
            "assert not watched & set(sys.modules), sorted(watched & set(sys.modules))\n"
        )
        proc = _child(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert "|E(Z(200){C3})| = 16 = 2^4" in proc.stdout
        assert "E(Z(200){C3}): 16 elements" in proc.stdout

    def test_closed_pipe_exits_quietly(self):
        # 16,384 members, far more than a pipe buffer holds
        proc = subprocess.Popen(
            [sys.executable, "-c", ENTRY, "list", "Z(4095){C4}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert first == b"E(Z(4095){C4}): 16384 elements [crt-combined]\n"
        assert err == b""  # no traceback, no "Exception ignored" line


ENTRY = "import sys; from idemlift.cli import main; sys.exit(main())"


def _child_env() -> dict:
    # the child must import the same idemlift as this suite, wherever it runs
    env = dict(os.environ)
    src = str(Path(idemlift.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _child(args, **kwargs):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
        **kwargs,
    )


def test_declared_entry_point(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    module, func = scripts["idemlift"].split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = _child(["-c", code, "count", "Z(200){C3}"], cwd=tmp_path)
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
