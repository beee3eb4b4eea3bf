import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from magcoh import BlockDensityMatrix, c_r, reduce_single_mode, thermo
from magcoh import cli
from magcoh.cli import main
from magcoh.errors import InternalConsistencyError
from magcoh.verify import FAMILY_NAMES, FamilyResult


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestStateCommand:
    def test_two_site_state(self, capsys):
        code, out, _ = run(capsys, "state", "--N", "2", "--m", "1", "--k", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["spec"] == {"N": 2, "m": 1, "k_indices": [0], "J": 1}
        assert doc["basis"] == [[1], [2]]
        r = 1.0 / math.sqrt(2.0)
        for re, im in doc["amplitudes"]:
            assert abs(re - r) < 1e-15 and im == 0.0

    def test_single_mode_moduli(self, capsys):
        code, out, _ = run(capsys, "state", "--N", "4", "--m", "2", "--k", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["amplitudes"]) == 6
        for re, im in doc["amplitudes"]:
            assert abs(math.hypot(re, im) - 1.0 / math.sqrt(6.0)) < 1e-12

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "state", "--N", "6", "--m", "2", "--k", "1,4")
        _, second, _ = run(capsys, "state", "--N", "6", "--m", "2", "--k", "1,4")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "state.json"
        code, out, _ = run(capsys, "state", "--N", "2", "--m", "1", "--k", "1", "-o", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["spec"]["k_indices"] == [1]

    def test_domain_errors_exit_2(self, capsys):
        code, _, err = run(capsys, "state", "--N", "4", "--m", "2", "--k", "9,1")
        assert code == 2
        assert "error[domain]" in err
        code, _, err = run(capsys, "state", "--N", "4", "--m", "2", "--k", "1")
        assert code == 2
        code, _, err = run(capsys, "state", "--N", "4", "--m", "2", "--k", "a,b")
        assert code == 2

    def test_infeasible_exits_3(self, capsys):
        code, _, err = run(capsys, "state", "--N", "28", "--m", "6", "--k", "1,1,1,1,1,1", "--budget", "100")
        assert code == 3
        assert "error[infeasible]" in err

    def test_null_state_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "state", "--N", "2", "--m", "2", "--k", "0,1")
        assert code == 2
        assert "destructively" in err


class TestReduceCommand:
    def test_block_weights_small_chain(self, capsys):
        code, out, _ = run(capsys, "reduce", "--N", "4", "--m", "2", "--k", "1,1", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        weights = {b["q"]: b["weight"] for b in doc["blocks"]}
        assert abs(weights[0] - 1.0 / 6.0) < 1e-12
        assert abs(weights[1] - 2.0 / 3.0) < 1e-12
        assert abs(weights[2] - 1.0 / 6.0) < 1e-12
        assert abs(doc["trace"] - 1.0) < 1e-12
        labels = next(b["labels"] for b in doc["blocks"] if b["q"] == 1)
        assert labels == [[1], [2]]

    def test_three_routes_agree(self, capsys):
        docs = {}
        for method in ("general", "single-mode", "oracle"):
            code, out, _ = run(
                capsys, "reduce", "--N", "8", "--m", "2", "--k", "1,1", "--n", "3", "--method", method
            )
            assert code == 0
            docs[method] = json.loads(out)
        for method in ("single-mode", "oracle"):
            for ref, other in zip(docs["general"]["blocks"], docs[method]["blocks"]):
                assert ref["q"] == other["q"]
                a = np.array(ref["matrix"], dtype=float)
                b = np.array(other["matrix"], dtype=float)
                assert np.abs(a - b).max() < 1e-10

    def test_scattered_sites(self, capsys):
        code, out, _ = run(capsys, "reduce", "--N", "8", "--m", "2", "--k", "1,3", "--sites", "2,5,7")
        assert code == 0
        doc = json.loads(out)
        assert doc["subsystem"]["sites"] == [2, 5, 7]

    def test_single_mode_route_guards(self, capsys):
        code, _, err = run(
            capsys, "reduce", "--N", "8", "--m", "2", "--k", "1,3", "--n", "3", "--method", "single-mode"
        )
        assert code == 2
        code, _, err = run(
            capsys, "reduce", "--N", "8", "--m", "2", "--k", "1,1", "--sites", "2,5", "--method", "single-mode"
        )
        assert code == 2

    def test_sites_and_n_conflict(self, capsys):
        code, _, err = run(capsys, "reduce", "--N", "8", "--m", "2", "--k", "1,1", "--n", "2", "--sites", "1,2")
        assert code == 2

    def test_oracle_reports_off_block_residual(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--N", "6", "--m", "2", "--k", "1,2", "--n", "2", "--method", "oracle"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["off_block_residual"] is not None
        assert doc["off_block_residual"] < 1e-12


class TestCoherenceCommand:
    def test_full_chain_maximal(self, capsys):
        code, out, _ = run(capsys, "coherence", "--N", "4", "--m", "2", "--k", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["log_units"] == "nats"
        assert abs(doc["report"]["c_r"] - math.log(6.0)) < 1e-10
        assert abs(doc["report"]["c_l1"] - 5.0) < 1e-10
        assert doc["report"]["basis_dimension"] == 6

    def test_single_site_is_incoherent(self, capsys):
        code, out, _ = run(capsys, "coherence", "--N", "8", "--m", "2", "--k", "1,1", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["c_l1"] < 1e-14
        assert doc["report"]["c_r"] < 1e-14
        assert doc["report"]["c_ln"] < 1e-14

    def test_single_mode_averages_and_gaps(self, capsys):
        code, out, _ = run(capsys, "coherence", "--N", "8", "--m", "2", "--k", "1,1", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        averages = doc["single_mode_averages"]
        gaps = doc["average_gaps"]
        direct = c_r(reduce_single_mode(8, 3, 2, 2.0 * math.pi / 8.0))
        assert abs(doc["report"]["c_r"] - direct) < 1e-12
        assert abs(doc["report"]["c_r"] - averages["c_r"] - gaps["c_r"]) < 1e-14
        assert abs(gaps["c_r"]) < 1e-10
        assert abs(gaps["c_l1"]) < 1e-10
        assert gaps["c_ln"] > 1e-3

    def test_mixed_momenta_have_no_averages(self, capsys):
        code, out, _ = run(capsys, "coherence", "--N", "8", "--m", "2", "--k", "1,3", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["single_mode_averages"] is None
        assert doc["average_gaps"] is None

    def test_no_subsystem_is_the_whole_chain(self, capsys):
        code, whole, _ = run(capsys, "coherence", "--N", "8", "--m", "2", "--k", "1,3")
        assert code == 0
        code, prefix, _ = run(capsys, "coherence", "--N", "8", "--m", "2", "--k", "1,3", "--n", "8")
        assert code == 0
        whole, prefix = json.loads(whole), json.loads(prefix)
        assert whole["subsystem"] is None
        assert prefix["subsystem"] == {"parent_N": 8, "sites": list(range(1, 9))}
        assert whole["report"] == prefix["report"]

    def test_whole_chain_refusal_names_the_block(self, capsys):
        # the 4845-entry table fits the default budget; its 4845 x 4845 projector does not
        code, out, err = run(capsys, "coherence", "--N", "20", "--m", "4", "--k", "1,2,3,4")
        assert code == 3
        assert out == ""
        assert err == "error[infeasible]: sector q=4 needs a 4845 x 4845 block, budget is 10000000\n"


class TestThermoCommand:
    def test_header_and_midpoint(self, capsys):
        code, out, _ = run(
            capsys, "thermo", "--epsilon0", "2.0", "--beta-min", "-1", "--beta-max", "1", "--count", "3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "beta_c,u,heat_capacity,epsilon0"
        mid = lines[2].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == 1.0
        assert float(mid[2]) == 0.0
        assert float(mid[3]) == 2.0

    def test_peak_shows_up_on_a_fine_grid(self, capsys):
        eps = 1.0
        code, out, _ = run(
            capsys, "thermo", "--epsilon0", str(eps), "--beta-min", "0.5", "--beta-max", "5", "--count", "4501"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        best = max(rows, key=lambda r: float(r[2]))
        assert abs(eps * float(best[0]) - 2.39936) < 1e-3
        assert abs(float(best[2]) - 0.4392288398906452) < 1e-6

    def test_deterministic(self, capsys):
        args = ("thermo", "--epsilon0", "1.5", "--beta-min", "-2", "--beta-max", "2", "--count", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_domain_exit(self, capsys):
        code, _, err = run(capsys, "thermo", "--epsilon0", "-1", "--beta-min", "0", "--beta-max", "1", "--count", "5")
        assert code == 2

    def test_overflowing_grid_is_one_error_line(self, capsys):
        # finite endpoints whose difference overflows: the error, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "thermo", "--epsilon0", "1", "--beta-min=-1.7e308", "--beta-max", "1.7e308", "--count", "3"
            )
        assert code == 2
        assert out == ""
        assert err == "error[domain]: inverse temperature must be finite, got nan\n"


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == f"{len(FAMILY_NAMES)}/{len(FAMILY_NAMES)} families passed"
        for name in FAMILY_NAMES:
            assert any(line.startswith("PASS") and f" {name} " in line for line in lines)
        assert not any(line.startswith("FAIL") for line in lines)

    def test_covers_every_family(self, capsys):
        _, out, _ = run(capsys, "verify")
        reported = {line.split()[1] for line in out.strip().splitlines() if line.startswith(("PASS", "FAIL"))}
        assert reported == set(FAMILY_NAMES)
        assert len(FAMILY_NAMES) == 27

    def test_forced_failure_flips_the_exit_code(self, capsys, monkeypatch):
        real = cli.run_suite

        def failing(*args):
            return [*real(*args), FamilyResult("forced-failure", False, 1.0, "injected by the test")]

        monkeypatch.setattr(cli, "run_suite", failing)
        code, out, _ = run(capsys, "verify")
        assert code == 4
        assert "FAIL  forced-failure" in out
        assert out.strip().splitlines()[-1] == f"{len(FAMILY_NAMES)}/{len(FAMILY_NAMES) + 1} families passed"

    def test_removed_flags_are_unknown(self, capsys):
        for argv in (["verify", "--force-failure"], ["state", "--N", "4", "--m", "1", "--k", "1", "--J", "2"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    def test_descaled_chain_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--N", "40")
        assert code == 2


def test_unknown_command_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["fluff"])


def per_float_rendering(a: np.ndarray) -> str:
    # the renderer's oracle: nested [re, im] pairs, one format call per float
    if a.ndim == 1:
        return "[" + ", ".join(f"[{float(v.real):.17g}, {float(v.imag):.17g}]" for v in a) + "]"
    return "[" + ", ".join(per_float_rendering(row) for row in a) + "]"


EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    1.5e-310,
    2.2250738585072014e-308,  # smallest normal
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1.0,
    -3.0,
    2.0**53,
    1e16,
    0.1,
    1.0 / 3.0,
]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def complex_arrays(draw):
    shape = draw(st.one_of(st.tuples(st.integers(0, 7)), st.tuples(st.integers(0, 5), st.integers(0, 5))))
    count = int(np.prod(shape)) * 2
    parts = draw(st.lists(finite_floats, min_size=count, max_size=count))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)


class TestRenderer:
    @seed(4409)
    @settings(max_examples=300, deadline=None, database=None)
    @given(complex_arrays())
    def test_bulk_rendering_matches_the_per_float_oracle(self, a):
        text = cli._render_json(a)
        assert text == per_float_rendering(a)
        # parse_int=float keeps -0 and integral values as the floats they were
        parsed = np.array(json.loads(text, parse_int=float), dtype=np.float64).reshape(a.shape + (2,))
        assert [x.hex() for x in parsed.ravel().tolist()] == [x.hex() for x in a.view(np.float64).ravel().tolist()]

    def test_arrays_nest_inside_documents(self):
        a = np.array([[1 + 2j, -0.5j], [0.1, 3]])
        doc = {"w": 0.25, "matrix": a, "labels": [[1], [2]]}
        expected = '{"w": 0.25, "matrix": ' + per_float_rendering(a) + ', "labels": [[1], [2]]}'
        assert cli._render_json(doc) == expected

    @pytest.mark.parametrize("bad,shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_first_non_finite_float_is_named(self, bad, shown):
        a = np.zeros((3, 3), dtype=np.complex128)
        a[1, 2] = complex(0.0, bad)
        a[2, 0] = complex(math.nan, 0.0)
        with pytest.raises(InternalConsistencyError, match=f"refusing to serialize non-finite value {shown}$"):
            cli._render_json({"matrix": a})


class TestNonFiniteOutputExits4:
    """A non-finite float in a result is refused: exit 4 and no output."""

    def check_refused(self, capsys, tmp_path, *argv, shown):
        target = tmp_path / "out"
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert code == 4
        assert out == ""
        assert err == f"error[internal-consistency]: refusing to serialize non-finite value {shown}\n"
        assert not target.exists()

    def test_reduce_matrix(self, capsys, monkeypatch, tmp_path):
        real = cli.reduce

        def poisoned(*args, **kwargs):
            rho = real(*args, **kwargs)
            rho.blocks[1][0, 2] = complex(0.25, math.inf)
            return rho

        monkeypatch.setattr(cli, "reduce", poisoned)
        self.check_refused(capsys, tmp_path, "reduce", "--N", "8", "--m", "2", "--k", "1,3", "--n", "4", shown="inf")

    def test_state_vector(self, capsys, monkeypatch, tmp_path):
        real = cli.build_state

        def poisoned(*args, **kwargs):
            table = real(*args, **kwargs)
            amplitudes = table.amplitudes.copy()
            amplitudes[3] = complex(math.nan, 0.0)
            return dataclasses.replace(table, amplitudes=amplitudes)

        monkeypatch.setattr(cli, "build_state", poisoned)
        self.check_refused(capsys, tmp_path, "state", "--N", "6", "--m", "2", "--k", "1,4", shown="nan")

    def test_thermo_csv_row(self, capsys, monkeypatch, tmp_path):
        real = thermo.sweep

        def poisoned(*args, **kwargs):
            curve = real(*args, **kwargs)
            points = list(curve.points)
            points[2] = points[2]._replace(heat_capacity=-math.inf)
            return dataclasses.replace(curve, points=tuple(points))

        monkeypatch.setattr(thermo, "sweep", poisoned)
        self.check_refused(
            capsys, tmp_path, "thermo", "--epsilon0", "1", "--beta-min", "-1", "--beta-max", "1", "--count", "5",
            shown="-inf",
        )


def test_failed_validation_exits_4(capsys, monkeypatch):
    # a non-Hermitian sector fails BlockDensityMatrix.validate inside the command
    def broken(*args, **kwargs):
        return BlockDensityMatrix(1, {0: np.array([[0.5]]), 1: np.array([[0.5 + 0.25j]])}).validate()

    monkeypatch.setattr(cli, "reduce", broken)
    code, out, err = run(capsys, "reduce", "--N", "6", "--m", "1", "--k", "1", "--n", "1")
    assert code == 4
    assert out == ""
    assert err == "error[internal-consistency]: block q=1 departs from Hermiticity by 5.000e-01\n"
