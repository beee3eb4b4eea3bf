import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from magcoh import BlockDensityMatrix, c_r, reduce_single_mode, thermo
from magcoh import cli, reduced_density
from magcoh.combinat import combination_array, enumerate_combinations
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

    @pytest.mark.parametrize("command", ["state", "reduce", "coherence"])
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_a_domain_error(self, capsys, command, budget):
        code, out, err = run(capsys, command, "--N", "8", "--m", "2", "--k", "1,3", "--budget", budget)
        assert (code, out) == (2, "")
        assert err == f"error[domain]: --budget must be at least 1, got {budget}\n"

    def test_budget_of_one_is_read_as_a_ceiling(self, capsys):
        code, _, err = run(capsys, "state", "--N", "8", "--m", "2", "--k", "1,3", "--budget", "1")
        assert code == 3
        assert err == "error[infeasible]: state table needs 28 amplitudes, budget is 1\n"

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

    @pytest.mark.parametrize("option,what", [("--k", "momentum"), ("--sites", "site")])
    def test_unparsable_indices_name_their_option(self, capsys, option, what):
        argv = {"--k": "1,3", "--sites": "2,5", option: "a,b"}
        code, out, err = run(capsys, "reduce", "--N", "8", "--m", "2", "--k", argv["--k"], "--sites", argv["--sites"])
        assert (code, out) == (2, "")
        assert err == f"error[domain]: {what} indices must be comma-separated integers, got 'a,b'\n"

    def test_sites_and_n_conflict(self, capsys):
        code, _, err = run(capsys, "reduce", "--N", "8", "--m", "2", "--k", "1,1", "--n", "2", "--sites", "1,2")
        assert code == 2

    @pytest.mark.parametrize("command", ["reduce", "coherence"])
    def test_empty_sites_is_an_empty_subsystem(self, capsys, command):
        code, out, err = run(capsys, command, "--N", "8", "--m", "2", "--k", "1,3", "--sites", "")
        assert (code, out) == (2, "")
        assert err == "error[domain]: subsystem needs at least one site\n"

    @pytest.mark.parametrize("command", ["reduce", "coherence"])
    def test_empty_sites_still_conflicts_with_n(self, capsys, command):
        code, out, err = run(capsys, command, "--N", "8", "--m", "2", "--k", "1,3", "--sites", "", "--n", "3")
        assert (code, out) == (2, "")
        assert err == "error[domain]: --sites and --n are mutually exclusive\n"

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

    def test_one_parser_serves_every_call_in_a_process(self, capsys):
        args = ("thermo", "--epsilon0", "1.5", "--beta-min", "-2", "--beta-max", "2", "--count", "11")
        code, first, _ = run(capsys, *args)
        assert code == 0
        code, out, _ = run(capsys, "verify")
        assert code == 0 and out.strip().splitlines()[-1].endswith("families passed")
        code, again, _ = run(capsys, *args)
        assert (code, again) == (0, first)
        assert cli.build_parser() is cli.build_parser()

    def test_domain_exit(self, capsys):
        code, _, err = run(capsys, "thermo", "--epsilon0", "-1", "--beta-min", "0", "--beta-max", "1", "--count", "5")
        assert code == 2

    def test_huge_beta_rows_are_finite(self, capsys):
        # (eps0 beta)^2 overflows where exp(-|eps0 beta|) is 0: C is 0, not NaN
        for edge in ("1e200", "2e154"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(
                    capsys, "thermo", "--epsilon0", "1", f"--beta-min=-{edge}", "--beta-max", edge, "--count", "3"
                )
            assert (code, err) == (0, "")
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert [(r[1], r[2]) for r in rows] == [("1", "0"), ("0.5", "0"), ("0", "0")]

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

    @pytest.mark.parametrize("lo,hi", [("nan", "1"), ("0", "nan"), ("inf", "1")])
    def test_non_finite_endpoint_is_named_before_the_order(self, capsys, lo, hi):
        code, out, err = run(capsys, "thermo", "--epsilon0", "1", "--beta-min", lo, "--beta-max", hi, "--count", "5")
        assert (code, out) == (2, "")
        assert err == "error[domain]: sweep endpoints must be finite\n"


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

    def test_negative_seed_is_one_domain_error_line(self, capsys):
        # numpy's generator refuses a negative seed; the suite refuses it first
        code, out, err = run(capsys, "verify", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error[domain]: suite needs a non-negative seed, got seed=-1\n"


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


def oracle_rendering(obj, array=per_float_rendering) -> str:
    # the document oracle: per-float arrays, json for strings, ints and site lists
    if isinstance(obj, np.ndarray):
        return array(obj)
    if isinstance(obj, cli._SiteLists):
        return json.dumps([list(l) for l in enumerate_combinations(obj.n, obj.m)])
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, list):
        return "[" + ", ".join(oracle_rendering(v, array) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(json.dumps(k) + ": " + oracle_rendering(v, array) for k, v in obj.items()) + "}"
    return json.dumps(obj)


def template_rendering(a: np.ndarray) -> str:
    # the row-template renderer the array formatter replaced: one
    # "[%.17g, %.17g]" template call per row, or per _PIECE pairs of a
    # longer row
    pair = "[%.17g, %.17g]"
    full = ", ".join([pair] * cli._PIECE)
    last = ", ".join([pair] * (a.shape[-1] % cli._PIECE))
    step = 2 * cli._PIECE

    def rows(p: np.ndarray) -> str:
        if p.ndim == 1:
            pieces = (p[i : i + step] for i in range(0, p.size, step))
            return "[" + ", ".join((full if q.size == step else last) % tuple(q.tolist()) for q in pieces) + "]"
        return "[" + ", ".join(rows(r) for r in p) + "]"

    return rows(np.ascontiguousarray(a, dtype=np.complex128).view(np.float64))


def template_thermo(curve) -> str:
    # the line-template CSV writer the array formatter replaced
    line = "%.17g,%.17g,%.17g," + f"{curve.epsilon0:.17g}" + "\n"
    return "beta_c,u,heat_capacity,epsilon0\n" + "".join(map(line.__mod__, curve.points.tolist()))


@st.composite
def site_list_tables(draw):
    n = draw(st.integers(0, 9))
    return cli._SiteLists(n, draw(st.integers(0, n)))


def wide_vectors():
    # wider than the smallest chunk sizes below, so rows are cut into pieces
    return st.integers(0, 40).map(lambda w: (np.arange(w) * (0.1 - 0.7j)) ** 3)


documents = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        finite_floats,
        st.text(max_size=4),
        complex_arrays(),
        wide_vectors(),
        site_list_tables(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(st.text(max_size=3), children, max_size=4)
    ),
    max_leaves=12,
)


class TestStreamingWriter:
    @pytest.mark.parametrize("piece", [1, 3, 4096])
    @seed(1409)
    @settings(max_examples=150, deadline=None, database=None)
    @given(documents)
    def test_streamed_joined_and_oracle_bytes_agree(self, tmp_path_factory, piece, doc):
        expected = oracle_rendering(doc)
        target = tmp_path_factory.mktemp("doc") / "out.json"
        stdout = io.StringIO()
        with mock.patch.object(cli, "_PIECE", piece):
            assert cli._render_json(doc) == expected
            cli._emit(doc, str(target))
            with contextlib.redirect_stdout(stdout):
                cli._emit(doc, None)
        assert target.read_bytes() == (expected + "\n").encode()
        assert stdout.getvalue() == expected + "\n"

    @pytest.mark.parametrize("piece", [1, 3, 4096])
    def test_site_list_rows_render_like_lists_of_ints(self, piece):
        with mock.patch.object(cli, "_PIECE", piece):
            for n in range(11):
                for m in range(n + 1):
                    today = cli._render_json([list(l) for l in enumerate_combinations(n, m)])
                    assert cli._render_json(cli._SiteLists(n, m)) == today
                    assert cli._render_json(combination_array(n, m).tolist()) == today

    @pytest.mark.parametrize("piece", [1, 4, 4096])
    def test_thermo_blocks_read_like_one_line_per_point(self, capsys, piece):
        curve = thermo.sweep(1.5, -2.0, 3.0, 9)
        expected = "beta_c,u,heat_capacity,epsilon0\n" + "".join(
            f"{p.beta_c:.17g},{p.u:.17g},{p.heat_capacity:.17g},{curve.epsilon0:.17g}\n" for p in curve.points
        )
        with mock.patch.object(cli, "_PIECE", piece):
            code, out, _ = run(capsys, "thermo", "--epsilon0", "1.5", "--beta-min", "-2", "--beta-max", "3", "--count", "9")
        assert (code, out) == (0, expected)

    def test_arrays_write_the_bytes_of_the_row_templates(self, capsys, tmp_path):
        rng = np.random.default_rng(2207)
        piece = cli._PIECE

        def block(*shape):
            parts = rng.standard_normal(shape + (2,)) * 10.0 ** rng.uniform(-8, 8, shape + (2,))
            # subnormal, zero and negative-zero entries among the normal ones
            spots = rng.random(parts.shape)
            parts[spots < 0.05] = rng.choice([5e-324, -5e-324, 1.5e-310, -2.2250738585072009e-308])
            parts[(spots >= 0.05) & (spots < 0.1)] = 0.0
            parts[(spots >= 0.1) & (spots < 0.15)] = -0.0
            return parts.view(np.complex128)[..., 0]

        doc = {
            "small": block(9, 7),
            "wide": block(3, piece + 5),
            "vector": block(2 * piece),
            "rows": block(5 * piece // 7 + 1, 7),
            "after": [0.5, -0.0],
        }
        expected = oracle_rendering(doc, template_rendering) + "\n"
        assert expected == oracle_rendering(doc) + "\n"
        cli._emit(doc, str(tmp_path / "doc.json"))
        cli._emit(doc, None)
        assert capsys.readouterr().out == expected
        assert (tmp_path / "doc.json").read_bytes() == expected.encode()

    def test_thermo_writes_the_bytes_of_the_line_template(self, capsys, tmp_path):
        # beyond |beta| = 1e280 and past the piece boundaries
        count = 2 * cli._PIECE + 3
        argv = ["thermo", "--epsilon0", "0.7", "--beta-min=-1e300", "--beta-max=1e300", "--count", str(count)]
        expected = template_thermo(thermo.sweep(0.7, -1e300, 1e300, count))
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected)
        assert main([*argv, "-o", str(tmp_path / "sweep.csv")]) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == expected.encode()

    def test_unknown_type_is_refused_before_anything_is_written(self, capsys, tmp_path):
        doc = {"ok": [1, 2.5], "bad": {1, 2}}
        for path in (None, tmp_path / "out"):
            with pytest.raises(InternalConsistencyError, match="^cannot serialize set$"):
                cli._emit(doc, None if path is None else str(path))
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", [(), (2, 2, 2)])
    def test_complex_array_of_other_rank_is_refused_before_anything_is_written(self, capsys, tmp_path, shape):
        doc = {"ok": np.ones(3, dtype=np.complex128), "bad": np.zeros(shape, dtype=np.complex128)}
        for path in (None, tmp_path / "out"):
            with pytest.raises(InternalConsistencyError, match=f"^cannot serialize a {len(shape)}-d complex array$"):
                cli._emit(doc, None if path is None else str(path))
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["state", "--N", "7", "--m", "3", "--k", "1,2,6"],
            ["reduce", "--N", "8", "--m", "2", "--k", "1,3", "--n", "3"],
            ["reduce", "--N", "8", "--m", "2", "--k", "1,3", "--sites", "2,5,7"],
            ["reduce", "--N", "8", "--m", "3", "--k", "2,2,2", "--n", "5", "--method", "single-mode"],
            ["reduce", "--N", "8", "--m", "2", "--k", "1,3", "--sites", "1,4", "--method", "oracle"],
            ["coherence", "--N", "8", "--m", "2", "--k", "1,1", "--n", "3"],
            ["thermo", "--epsilon0", "1.5", "--beta-min", "-2", "--beta-max", "2", "--count", "9"],
            ["verify", "--N", "6"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
    )
    def test_stdout_and_output_file_carry_the_same_bytes(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv)
        target = tmp_path / "out"
        code_o, out_o, err_o = run(capsys, *argv, "-o", str(target))
        assert (code, err) == (code_o, err_o) == (0, "")
        assert out_o == ""
        assert target.read_bytes() == out.encode()

    def test_reduce_peaks_below_its_output_size(self, capsys, tmp_path):
        # the document is written as it is rendered, never held whole
        target = tmp_path / "rho.json"
        argv = ["reduce", "--N", "20", "--m", "4", "--k", "1,2,3,4", "--n", "10", "-o", str(target)]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < target.stat().st_size

    def test_single_mode_sectors_are_rendered_one_at_a_time(self, tmp_path):
        target = tmp_path / "rho.json"
        argv = ["reduce", "--N", "24", "--m", "12", "--k", ",".join(["5"] * 12), "--n", "10"]
        argv += ["--method", "single-mode", "-o", str(target)]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        widest = math.comb(10, 5) ** 2 * 16
        every_block = sum(math.comb(10, q) ** 2 for q in range(11)) * 16
        assert peak < 2 * widest < every_block


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
            blocks = dict(rho.blocks)
            blocks[1] = blocks[1].copy()
            blocks[1][0, 2] = complex(0.25, math.inf)
            return dataclasses.replace(rho, blocks=blocks)

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
            points = curve.points.copy()
            points.heat_capacity[2] = -math.inf
            return dataclasses.replace(curve, points=points)

        monkeypatch.setattr(thermo, "sweep", poisoned)
        self.check_refused(
            capsys, tmp_path, "thermo", "--epsilon0", "1", "--beta-min", "-1", "--beta-max", "1", "--count", "5",
            shown="-inf",
        )

    def test_single_mode_sector_read_when_rendered(self, capsys, monkeypatch, tmp_path):
        # the last sector is built only when the writer reaches it, after
        # every earlier sector has passed
        real = reduced_density._RankOneBlocks.__getitem__

        def poisoned(self, q):
            block = real(self, q)
            if q == max(self.sectors):
                block[1, 0] = complex(math.nan, 0.5)
            return block

        monkeypatch.setattr(reduced_density._RankOneBlocks, "__getitem__", poisoned)
        self.check_refused(
            capsys, tmp_path, "reduce", "--N", "8", "--m", "2", "--k", "1,1", "--n", "3", "--method", "single-mode",
            shown="nan",
        )


class TestNonFiniteStdoutExits4(TestNonFiniteOutputExits4):
    """The same refusals without -o: nothing reaches stdout."""

    def check_refused(self, capsys, tmp_path, *argv, shown):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == f"error[internal-consistency]: refusing to serialize non-finite value {shown}\n"


class _ClosedPipe:
    """A stdout whose reader has gone: ``method`` raises BrokenPipeError.
    Its descriptor is a file the test reads back."""

    def __init__(self, fd: int, method: str):
        self.fd, self.method = fd, method

    def fileno(self) -> int:
        return self.fd

    def writelines(self, chunks):
        if self.method == "writelines":
            raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        if self.method == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("method", ["writelines", "flush"])
def test_closed_pipe_exits_141_quietly(capsys, monkeypatch, tmp_path, method):
    target = tmp_path / "stdout"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd, method))
        code = main(["state", "--N", "16", "--m", "4", "--k", "1,3,5,7"])
        # the descriptor now leads to devnull, so a flush at exit cannot fail
        os.write(fd, b"late bytes")
    finally:
        os.close(fd)
    assert code == 141
    assert capsys.readouterr().err == ""
    assert target.read_bytes() == b""


def test_failed_validation_exits_4(capsys, monkeypatch):
    # a non-Hermitian sector fails BlockDensityMatrix.validate inside the command
    def broken(*args, **kwargs):
        return BlockDensityMatrix(1, {0: np.array([[0.5]]), 1: np.array([[0.5 + 0.25j]])}).validate()

    monkeypatch.setattr(cli, "reduce", broken)
    code, out, err = run(capsys, "reduce", "--N", "6", "--m", "1", "--k", "1", "--n", "1")
    assert code == 4
    assert out == ""
    assert err == "error[internal-consistency]: block q=1 departs from Hermiticity by 5.000e-01\n"
