import io

import numpy as np
import pytest

from modcoh import catalog, fileio
from modcoh.cli import main
from modcoh.gmodules import permutation_module, regular_module
from modcoh.groups import center


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def module_file_for(G, module):
    mats = [module.action[i] for i in G.generator_indices]
    return fileio.format_module_file(module.p, mats)


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

    def test_bad_module_file(self, tmp_path, Z4, capsys):
        f = tmp_path / "bad.mod"
        f.write_text("p 2\ndim 2\nmat\n0 1\n1 1\n")  # order-3 matrix over F_2
        code, _ = run(["module", "--group", "Z4", "--file", str(f),
                       "--task", "projective"])
        assert code == 1
        assert "RepresentationError" in capsys.readouterr().err
