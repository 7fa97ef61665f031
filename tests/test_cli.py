import io
import random

import numpy as np
import pytest

import maps_oracle
from modcoh import catalog, fileio
from modcoh.cli import _resolve_subgroup, build_parser, main
from modcoh.gmodules import permutation_module, regular_module
from modcoh.groups import center, prime_factors, whole_group


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def module_file_for(G, module):
    mats = [module.action[i] for i in G.generator_indices]
    return fileio.format_module_file(module.p, mats)


class TestParserReuse:
    ARGVS = (["dims", "--group", "Q8", "--p", "2", "--max-deg", "4"],
             ["maps", "--group", "A4", "--p", "2", "--sub", "sylow:2",
              "--max-deg", "2", "--format", "csv"],
             ["dims", "--group", "Q8"],
             ["nosuch"])

    def _session(self, capsys):
        seen = []
        for argv in self.ARGVS:
            try:
                seen.append(run(argv))
            except SystemExit as exc:
                seen.append(("exit", exc.code))
            seen.append(capsys.readouterr().err)
        return seen

    def test_one_parser_gives_the_first_calls_answers(self, capsys):
        build_parser.cache_clear()
        first = self._session(capsys)
        parser = build_parser()
        assert self._session(capsys) == first
        assert build_parser() is parser
        assert first[0][0] == first[2][0] == 0
        assert first[4] == first[6] == ("exit", 2)
        assert "required" in first[5] and "invalid choice" in first[7]


class TestDims:
    def test_q8_match(self):
        code, text = run(["dims", "--group", "Q8", "--p", "2",
                          "--max-deg", "7"])
        assert code == 0
        assert text.splitlines()[1].split() == ["0", "1", "1", "yes"]
        assert len(text.splitlines()) == 9

    def test_maschke(self):
        code, text = run(["dims", "--group", "Z3", "--p", "2",
                          "--max-deg", "4"])
        assert code == 0
        dims = [int(line.split()[1]) for line in text.splitlines()[1:]]
        assert dims == [1, 0, 0, 0, 0]

    def test_bad_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.grp"
        bad.write_text("name X\ndegree 3\ngen [0,0,1]\n")
        code, _ = run(["dims", "--group", f"file:{bad}", "--p", "2",
                       "--max-deg", "2"])
        assert code == 1
        assert "NonPermutation" in capsys.readouterr().err

    def test_group_file_roundtrip(self, tmp_path):
        f = tmp_path / "d8.grp"
        f.write_text("name D8file\ndegree 4\ngen [1,2,3,0]\ngen [0,3,2,1]\n")
        code, text = run(["dims", "--group", f"file:{f}", "--p", "2",
                          "--max-deg", "4"])
        assert code == 0
        dims = [int(line.split()[1]) for line in text.splitlines()[1:]]
        assert dims == [1, 2, 3, 4, 5]

    def test_csv_format(self):
        code, text = run(["dims", "--group", "Z2", "--p", "2",
                          "--max-deg", "2", "--format", "csv"])
        assert code == 0
        assert text.splitlines()[0] == "i,dim,expected,match"

    def test_deterministic(self):
        a = run(["dims", "--group", "S4", "--p", "2", "--max-deg", "5"])
        b = run(["dims", "--group", "S4", "--p", "2", "--max-deg", "5"])
        assert a == b

    def test_composite_p_rejected(self, capsys):
        code, _ = run(["dims", "--group", "Q8", "--p", "4", "--max-deg", "2"])
        assert code == 1
        assert "prime" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "1", "9", str(2 ** 21 - 1)])
    def test_non_prime_p_rejected(self, p, capsys):
        code, text = run(["dims", "--group", "Z2", "--p", p, "--max-deg", "2"])
        assert code == 1
        assert text == ""
        assert "must be prime" in capsys.readouterr().err

    def test_largest_prime_below_max_prime_accepted(self):
        code, text = run(["dims", "--group", "Z2", "--p", "2097143",
                          "--max-deg", "2"])
        assert code == 0
        dims = [int(line.split()[1]) for line in text.splitlines()[1:]]
        assert dims == [1, 0, 0]

    @pytest.mark.parametrize("p", ["4294967311", str(2 ** 61 - 1)])
    def test_prime_above_max_prime_rejected(self, p, capsys):
        from modcoh.cli import EXIT_INPUT
        code, text = run(["dims", "--group", "Z2", "--p", p, "--max-deg", "2"])
        assert code == EXIT_INPUT
        assert text == ""
        assert "PrimeTooLarge" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["S4", "D8"])
    def test_corrupted_stable_basis_exits_four(self, name, monkeypatch, capsys):
        """H^0 must be one-dimensional; a corrupted degree-0 stable basis is
        an invariant violation, reported before any row is printed."""
        from modcoh.cli import EXIT_INVARIANT
        from modcoh.cohmaps import stable_elements
        state = stable_elements(catalog.get_group(name), 2)
        for basis in (np.zeros((0, 1), dtype=np.int64), np.eye(2, dtype=np.int64)):
            monkeypatch.setitem(state._stable, 0, basis)
            code, text = run(["dims", "--group", name, "--p", "2", "--max-deg", "4"])
            assert (code, text) == (EXIT_INVARIANT, "")
            assert "InvariantViolation" in capsys.readouterr().err

    def test_json_format(self):
        import json
        code, text = run(["dims", "--group", "Q8", "--p", "2",
                          "--max-deg", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert [row["dim"] for row in payload] == [1, 2, 2, 1]


class TestPoincare:
    def test_d8_squared_denominator(self):
        code, text = run(["poincare", "--group", "D8", "--p", "2",
                          "--den", "1,1"])
        assert code == 0
        assert "numerator: 1" in text.splitlines()[0]

    def test_q8(self):
        code, text = run(["poincare", "--group", "Q8", "--p", "2",
                          "--den", "4"])
        assert code == 0
        assert text.splitlines()[0] == "numerator: 1 + 2*t + 2*t^2 + t^3"

    def test_z2(self):
        code, text = run(["poincare", "--group", "Z2", "--p", "2",
                          "--den", "1"])
        assert code == 0
        assert text.splitlines()[0] == "numerator: 1"

    def test_nofit_exit_three(self):
        code, _ = run(["poincare", "--group", "D8", "--p", "2",
                       "--den", "4"])
        assert code == 3


class TestMaps:
    def test_a4_sylow(self):
        code, text = run(["maps", "--group", "A4", "--p", "2",
                          "--sub", "sylow:2", "--max-deg", "5"])
        assert code == 0
        assert all(line.split()[3] == "yes" for line in text.splitlines()[1:])

    def test_z4_order2(self):
        code, text = run(["maps", "--group", "Z4", "--p", "2",
                          "--sub", "order:2", "--max-deg", "4"])
        assert code == 0
        # index 2 = 0 mod 2: the tr.res column asserts the zero composite
        assert "[G:H](0)" in text.splitlines()[0]
        assert all(line.split()[3] == "yes" for line in text.splitlines()[1:])

    def test_s4_dcheck(self):
        code, text = run(["maps", "--group", "S4", "--p", "2",
                          "--sub", "sylow:2", "--max-deg", "3", "--dcheck"])
        assert code == 0
        assert all(line.split()[4] == "yes" for line in text.splitlines()[1:])

    def test_unresolvable_subgroup(self, capsys):
        code, _ = run(["maps", "--group", "Q8", "--p", "2",
                       "--sub", "order:6", "--max-deg", "2"])
        assert code == 1

    def test_maps_csv_and_json(self):
        import json
        code, text = run(["maps", "--group", "A4", "--p", "2",
                          "--sub", "sylow:2", "--max-deg", "2",
                          "--format", "csv"])
        assert code == 0
        assert text.splitlines()[0].startswith("i,rank_res,rank_tr")
        code, text = run(["maps", "--group", "A4", "--p", "2",
                          "--sub", "sylow:2", "--max-deg", "2",
                          "--format", "json"])
        assert code == 0
        payload = json.loads(text)
        assert len(payload) == 3


class TestActions:
    def test_failed_quillen_check_exits_four(self, monkeypatch, capsys):
        from modcoh import actions
        monkeypatch.setattr(actions, "krull_dimension_estimate",
                            lambda G, p, max_deg=12: 99)
        code, text = run(["actions", "--group", "Z2"])
        assert code == 4
        assert text == ""
        assert "InvariantViolation" in capsys.readouterr().err

    def test_q8_all_true(self):
        code, text = run(["actions", "--group", "Q8", "--format", "json"])
        assert code == 0
        import json
        payload = json.loads(text)
        assert payload["swan_ok"] and payload["mtw_ok"] and payload["wolf_pq_ok"]

    def test_d6_mtw_false(self):
        code, text = run(["actions", "--group", "D6", "--format", "json"])
        assert code == 0
        import json
        payload = json.loads(text)
        assert payload["mtw_ok"] is False

    def test_z12_all_true(self):
        code, text = run(["actions", "--group", "Z12", "--format", "json"])
        assert code == 0
        import json
        payload = json.loads(text)
        assert payload["mtw_ok"] and payload["wolf_pq_ok"]


class TestModule:
    def test_regular_module_projective(self, tmp_path, D8):
        f = tmp_path / "reg.mod"
        f.write_text(module_file_for(D8, regular_module(D8, 2)))
        code, text = run(["module", "--group", "D8", "--file", str(f),
                          "--task", "projective"])
        assert code == 0
        assert "projective: True" in text
        assert "agree: True" in text

    def test_trivial_module_complexity(self, tmp_path, D8):
        f = tmp_path / "triv.mod"
        ngens = len(D8.generator_indices)
        f.write_text(fileio.format_module_file(2, [[[1]]] * ngens))
        code, text = run(["module", "--group", "D8", "--file", str(f),
                          "--task", "complexity"])
        assert code == 0
        assert "complexity: 2" in text
        assert "agree: True" in text

    def test_q8_center_coset_not_projective(self, tmp_path, Q8):
        f = tmp_path / "perm.mod"
        f.write_text(module_file_for(Q8, permutation_module(Q8, center(Q8), 2)))
        code, text = run(["module", "--group", "Q8", "--file", str(f),
                          "--task", "projective"])
        assert code == 0
        assert "projective: False" in text
        assert "agree: True" in text

    def test_disagreeing_projectivity_tests_exit_four(self, tmp_path, D8,
                                                      monkeypatch, capsys):
        from modcoh import cli
        f = tmp_path / "reg.mod"
        f.write_text(module_file_for(D8, regular_module(D8, 2)))
        monkeypatch.setattr(cli, "chouinard_projective", lambda M: False)
        code, text = run(["module", "--group", "D8", "--file", str(f),
                          "--task", "projective"])
        assert code == cli.EXIT_INVARIANT == 4
        assert text == ""
        assert "InvariantViolation" in capsys.readouterr().err

    def test_format_is_refused(self, tmp_path, D8, capsys):
        """`module` prints text only: --format, which it used to accept and
        ignore, is an unrecognized argument (argparse exit 2)."""
        f = tmp_path / "triv.mod"
        f.write_text(fileio.format_module_file(2, [[[1]]] * len(D8.generator_indices)))
        with pytest.raises(SystemExit) as exc:
            run(["module", "--group", "D8", "--file", str(f), "--task", "projective",
                 "--format", "json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_module_file_with_two_matrices_for_one_generator(self, tmp_path, capsys):
        group = tmp_path / "z2.grp"
        group.write_text("name Z2\ndegree 2\ngen [1,0]\ngen [1,0]\n")
        f = tmp_path / "two.mod"
        f.write_text(fileio.format_module_file(2, [[[1, 1], [0, 1]], [[1, 0], [0, 1]]]))
        code, text = run(["module", "--group", f"file:{group}", "--file", str(f),
                          "--task", "projective"])
        assert code == 1
        assert text == ""
        assert "RepresentationError" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [4, 9, 1])
    @pytest.mark.parametrize("task", ["projective", "complexity"])
    def test_module_file_with_a_p_that_is_not_prime(self, tmp_path, capsys, p, task):
        """p 4 recursed without end (sylow(G, 4) was all of G), p 9 and p 1
        printed reports and exited 0."""
        f = tmp_path / "m.mod"
        f.write_text(fileio.format_module_file(p, [[[1, 2], [0, 1]], [[1, 0], [0, 1]]]))
        code, text = run(["module", "--group", "Z2xZ2", "--file", str(f), "--task", task])
        assert (code, text) == (1, "")
        assert "error: BadParameters" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["sylow:6", "sylow:0", "sylow:4", "sylow:1"])
    def test_sylow_spec_with_a_number_that_is_not_prime(self, capsys, sub):
        """sylow:6 and sylow:0 printed a report for all of S4, sylow:4 raised
        a bare StopIteration."""
        code, text = run(["maps", "--group", "S4", "--p", "2", "--sub", sub])
        assert (code, text) == (1, "")
        assert "error: BadParameters" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dims", "--group", "S4", "--p", "2", "--max-deg", "-1"],
        ["poincare", "--group", "Z2", "--p", "2", "--den", "1", "--max-deg", "-1"],
        ["maps", "--group", "S4", "--p", "2", "--sub", "sylow:2", "--max-deg", "-2"],
        ["actions", "--group", "Q8", "--max-deg", "-3"],
    ])
    def test_negative_degree_refused(self, capsys, argv):
        """dims and maps printed only a table header, and actions a full
        report whose periodicity evidence came from no degree."""
        code, text = run(argv)
        assert (code, text) == (1, "")
        assert "error: BadParameters" in capsys.readouterr().err

    def test_bad_module_file(self, tmp_path, Z4, capsys):
        f = tmp_path / "bad.mod"
        f.write_text("p 2\ndim 2\nmat\n0 1\n1 1\n")  # order-3 matrix over F_2
        code, _ = run(["module", "--group", "Z4", "--file", str(f),
                       "--task", "projective"])
        assert code == 1
        assert "RepresentationError" in capsys.readouterr().err


def _maps_cases():
    """(name, p, subgroup specs) for every catalog group of order <= 48 at each
    prime: sylow:p, center, the whole group and two drawn elements by gens:,
    and every order:k."""
    cases = []
    for name in catalog.names():
        G = catalog.get_group(name)
        if not 1 < G.order <= 48:
            continue
        orders = sorted({G.element_order(g) for g in range(G.order)})
        drawn = random.Random(G.order).sample(range(1, G.order), min(2, G.order - 1))
        for p in prime_factors(G.order):
            subs = [f"sylow:{p}", "center",
                    "gens:" + ",".join(map(str, G.generator_indices)),
                    "gens:" + ",".join(map(str, drawn))]
            cases.append((name, p, subs + [f"order:{k}" for k in orders]))
    return cases


MAPS_CASES = _maps_cases()


class TestMapsReport:
    """The one-pass `maps` report against the per-degree loop it replaced."""

    def test_case_count(self):
        assert sum(len(subs) for _, _, subs in MAPS_CASES) == 175

    @pytest.mark.parametrize("name,p,subs", MAPS_CASES,
                             ids=[f"{name}-{p}" for name, p, _ in MAPS_CASES])
    def test_matches_per_degree_oracle(self, name, p, subs):
        for sub in subs:
            argv = ["maps", "--group", name, "--p", str(p), "--sub", sub,
                    "--max-deg", "4", "--dcheck", "--format", "csv"]
            want_out = io.StringIO()
            want_code = maps_oracle.cmd_maps(build_parser().parse_args(argv), want_out)
            assert run(argv) == (want_code, want_out.getvalue()), sub

    def test_zeroed_conjugation_block_reads_no(self, monkeypatch):
        """A term of g != 1 with zeroed actions fails the check; the identity
        term is no coset sum."""
        from modcoh import cohmaps
        real = cohmaps._coset_sum_cochain

        def zero_conjugations(src, dst, C):
            cosets, actions = real(src, dst, C)
            # a transfer's representatives start with 1, so this is c_g, g != 1
            if list(C) != [0] and len(C) == 1:
                actions = 0 * actions
            return cosets, actions

        monkeypatch.setattr(cohmaps, "_coset_sum_cochain", zero_conjugations)
        code, text = run(["maps", "--group", "S4", "--p", "2", "--sub", "sylow:2",
                          "--max-deg", "4", "--dcheck", "--format", "csv"])
        assert code == 2
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert [row[3] for row in rows] == ["yes"] * 5  # tr.res never reads a term
        assert [row[4] for row in rows] == ["yes", "NO", "NO", "NO", "NO"]

    @pytest.mark.parametrize("sub,blocks", [("sylow:2", 4), ("order:4", 6)])
    def test_each_block_built_once_per_report(self, monkeypatch, sub, blocks):
        """res and tr, then res c_g (one block) and tr for each double coset
        HgH, g != 1.

        For order:4 the g that normalises H has H n H^g = H, so its tr is
        the block (H, H, {1}) for both such g.
        """
        from modcoh import cohmaps
        real, built = cohmaps._coset_sum_cochain, []

        def spy(src, dst, C):
            built.append((src.subgroup, dst.subgroup, tuple(C)))
            return real(src, dst, C)

        monkeypatch.setattr(cohmaps, "_coset_sum_cochain", spy)
        code, _ = run(["maps", "--group", "S4", "--p", "2", "--sub", sub,
                       "--max-deg", "4", "--dcheck", "--format", "csv"])
        assert code == 0
        assert len(built) == len(set(built)) == blocks

    @pytest.mark.parametrize("name,sub,contexts", [
        ("S4", "sylow:2", 3),
        pytest.param("L3_2", "order:3", 3, marks=pytest.mark.stretch)])
    def test_contexts_only_for_g_h_and_intersections(self, monkeypatch, name, sub,
                                                     contexts):
        """A --dcheck report builds contexts for G, H and the H n H^g alone,
        never for a conjugate H^g: res c_g is one block from H to H n H^g."""
        from modcoh import cohmaps
        real, built = cohmaps.CochainContext.__init__, []

        def spy(self, resolution, subgroup, module):
            built.append(subgroup)
            real(self, resolution, subgroup, module)

        cohmaps.clear_context_cache()
        monkeypatch.setattr(cohmaps.CochainContext, "__init__", spy)
        code, _ = run(["maps", "--group", name, "--p", "2", "--sub", sub,
                       "--max-deg", "4", "--dcheck", "--format", "csv"])
        assert code == 0
        G = catalog.get_group(name)
        H = _resolve_subgroup(G, sub)
        assert len(built) == len(set(built)) == contexts
        assert built[:2] == [whole_group(G), H]
        assert all(set(S.member_indices) < set(H.member_indices) for S in built[2:])
