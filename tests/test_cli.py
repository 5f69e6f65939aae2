import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from importlib.resources import files

from infoflow.cli import _fmt, _ingest_flags, build_parser, main
from conftest import make_rng


def schema(name):
    return json.loads(files("infoflow.schemas").joinpath(name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def one_way_csv(tmp_path_factory):
    """one_way_2d panel written through the CLI itself (n=2e5, seed 0)."""
    path = tmp_path_factory.mktemp("data") / "one_way.csv"
    code = main(
        ["simulate", "--benchmark", "one_way_2d", "--n", "200000", "--seed", "0",
         "-o", str(path)]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def chain_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "chain.csv"
    assert main(
        ["simulate", "--benchmark", "chain_3", "--n", "100000", "--seed", "2",
         "-o", str(path)]
    ) == 0
    return path


def test_estimate_pipeline_recovers_analytic_flow(capsys, one_way_csv):
    code, out, err = run_cli(capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x")
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("flow y -> x:")
    value = float(line.split(":")[1].split()[0])
    assert value == pytest.approx(1 / 9, rel=0.15)
    p_line = next(l for l in out.splitlines() if l.strip().startswith("p (asymptotic)"))
    assert float(p_line.split(":")[1]) < 0.01


def test_estimate_json_report_validates(capsys, one_way_csv):
    code, out, _ = run_cli(
        capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x",
        "--json", "--normalize", "--surrogates", "19", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("estimate.schema.json"))
    assert payload["p_asymptotic"] < 0.01
    assert payload["p_surrogate"] == pytest.approx(1 / 20)
    assert 0 < payload["normalized"] < 1
    assert payload["dt"] == pytest.approx(0.01)


def test_estimate_numeric_indices_are_one_based(capsys, one_way_csv):
    code1, out1, _ = run_cli(capsys, "estimate", str(one_way_csv), "--source", "2", "--target", "1", "--json")
    code2, out2, _ = run_cli(capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x", "--json")
    assert code1 == code2 == 0
    assert json.loads(out1)["flow"] == json.loads(out2)["flow"]


def test_estimate_source_equals_target_exit_2(capsys, one_way_csv):
    code, _, err = run_cli(capsys, "estimate", str(one_way_csv), "--source", "x", "--target", "x")
    assert code == 2
    assert "source equals target" in err


def test_estimate_missing_file_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "estimate", str(tmp_path / "missing.csv"), "--source", "a", "--target", "b")
    assert code == 3
    assert "error" in err


def test_estimate_python_only_float_literal_exit_3(capsys, tmp_path):
    path = tmp_path / "underscore.csv"
    rows = ["a,b"] + [f"{v},{-v}" for v in (0.3, 1.2, -0.7, 0.9, 2.2, -1.4)] + ["1_000,0.5"]
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "estimate", str(path), "--source", "a", "--target", "b")
    assert code == 3
    assert "'1_000'" in err


def test_estimate_singular_data_exit_4(capsys, tmp_path):
    path = tmp_path / "singular.csv"
    rows = ["a,b"] + [f"{v},{2 * v}" for v in (0.3, 1.2, -0.7, 0.9, 2.2, -1.4, 0.5, 1.1)]
    path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "estimate", str(path), "--source", "a", "--target", "b")
    assert code == 4
    assert "singular" in err.lower()


def test_matrix_constant_series_exit_4(capsys, tmp_path):
    # the mean of 101 samples of 0.1 is inexact, so the centred constant is
    # rounding noise, not an exact zero
    path = tmp_path / "constant.csv"
    noise = make_rng(2).standard_normal(101)
    path.write_text("a,b\n" + "".join(f"{v:.17g},0.1\n" for v in noise))
    code, out, err = run_cli(capsys, "matrix", str(path))
    assert code == 4
    assert out == ""
    assert "singular" in err.lower()


def test_estimate_dt_flag_conflicts_with_time_column(capsys, one_way_csv):
    code, _, err = run_cli(
        capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x", "--dt", "0.5"
    )
    assert code == 2
    assert "time column" in err


def test_estimate_per_step_scales_by_dt(capsys, one_way_csv):
    _, out_time, _ = run_cli(capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x", "--json")
    _, out_step, _ = run_cli(
        capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x", "--json", "--per-step"
    )
    per_time = json.loads(out_time)
    per_step = json.loads(out_step)
    assert per_step["units"] == "nats/step"
    assert per_step["flow"] == pytest.approx(per_time["flow"] * per_time["dt"], rel=1e-12)


def test_estimate_too_few_surrogates_exit_2(capsys, one_way_csv):
    code, _, err = run_cli(
        capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x",
        "--surrogates", "5", "--seed", "1",
    )
    assert code == 2
    assert "19" in err


def test_strict_repro_requires_seed(capsys, one_way_csv, tmp_path):
    code, _, err = run_cli(
        capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x",
        "--surrogates", "19", "--strict-repro",
    )
    assert code == 2
    assert "--seed" in err
    code, _, _ = run_cli(
        capsys, "simulate", "--benchmark", "one_way_2d", "--n", "100",
        "--strict-repro", "-o", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_generated_seed_announced(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--benchmark", "one_way_2d", "--n", "100", "-o", str(tmp_path / "g.csv")
    )
    assert code == 0
    assert "generated seed:" in err


def test_matrix_table_layout(capsys, one_way_csv):
    code, out, _ = run_cli(capsys, "matrix", str(one_way_csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split() == ["target", "x", "y", "self"]
    x_row = lines[2].split()
    assert x_row[0] == "x" and x_row[1] == "."
    assert float(x_row[2]) == pytest.approx(1 / 9, rel=0.15)


def test_matrix_cells_stay_apart_at_every_width(capsys, tmp_path):
    data = tmp_path / "c.csv"
    assert main(["simulate", "--benchmark", "chain_3", "--n", "10000", "--seed", "1", "-o", str(data)]) == 0
    code, out, _ = run_cli(capsys, "matrix", str(data), "--k", "2")  # x1's row prints -0.0005803
    assert code == 0
    rows = [row.split() for row in out.splitlines()[2:]]
    assert [len(row) for row in rows] == [3 + 2] * 3
    assert max(len(cell) for row in rows for cell in row) == 10
    assert (_fmt(-1.234e100, 10) + _fmt(-0.0005803, 10)).split() == ["-1.234e+100", "-0.0005803"]


def test_matrix_on_a_byte_order_marked_file_prints_the_plain_bytes(capsys, tmp_path):
    plain = tmp_path / "plain.csv"
    assert main(["simulate", "--benchmark", "one_way_2d", "--n", "5000", "--seed", "3", "-o", str(plain)]) == 0
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    capsys.readouterr()
    want = run_cli(capsys, "matrix", str(plain))
    assert want[0] == 0
    assert run_cli(capsys, "matrix", str(marked)) == want


def test_matrix_json_validates(capsys, one_way_csv):
    code, out, _ = run_cli(capsys, "matrix", str(one_way_csv), "--json", "--normalize")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("matrix.schema.json"))
    assert len(payload["flows"]) == 2
    assert len(payload["self_influence"]) == 2
    assert payload["self_influence"][0]["value"] == pytest.approx(-1.0, rel=0.1)


def test_matrix_with_surrogates(capsys, tmp_path):
    data = tmp_path / "m.csv"
    assert main(["simulate", "--benchmark", "one_way_2d", "--n", "4000", "--seed", "6", "-o", str(data)]) == 0
    code, out, _ = run_cli(
        capsys, "matrix", str(data), "--json", "--surrogates", "19", "--seed", "2"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("matrix.schema.json"))
    assert all(f["p_surrogate"] is not None for f in payload["flows"])


def test_graph_dot_output(capsys, chain_csv):
    code, out, _ = run_cli(capsys, "graph", str(chain_csv), "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"x1" -> "x2"' in out and '"x2" -> "x3"' in out
    assert '"x1" -> "x3"' not in out


def test_graph_alpha_zero_empty(capsys, chain_csv):
    code, out, _ = run_cli(capsys, "graph", str(chain_csv), "--format", "dot", "--alpha", "0")
    assert code == 0
    assert "->" not in out


def test_graph_json_validates_and_writes_file(capsys, chain_csv, tmp_path):
    out_path = tmp_path / "graph.json"
    code, _, _ = run_cli(
        capsys, "graph", str(chain_csv), "--format", "json", "-o", str(out_path),
        "--correction", "bonferroni",
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    jsonschema.validate(payload, schema("graph.schema.json"))
    got = {(e["source"], e["target"]) for e in payload["edges"]}
    assert got == {("x1", "x2"), ("x2", "x3")}
    assert payload["meta"]["correction"] == "bonferroni"


def test_window_csv_row_count(capsys, tmp_path):
    data = tmp_path / "win.csv"
    assert main(["simulate", "--benchmark", "one_way_2d", "--n", "1000", "--seed", "4", "-o", str(data)]) == 0
    code, out, _ = run_cli(
        capsys, "window", str(data), "--window", "200", "--step", "100",
        "--source", "y", "--target", "x",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "center,flow[y->x],stderr[y->x],p[y->x]"
    assert len(lines) == 1 + 9


def test_window_single_window_matches_estimate(capsys, one_way_csv):
    code, out, _ = run_cli(
        capsys, "window", str(one_way_csv), "--window", "200000",
        "--source", "y", "--target", "x",
    )
    assert code == 0
    flow = float(out.strip().splitlines()[1].split(",")[1])
    _, est_out, _ = run_cli(capsys, "estimate", str(one_way_csv), "--source", "y", "--target", "x", "--json")
    assert flow == pytest.approx(json.loads(est_out)["flow"], rel=1e-9)


def test_window_json_validates(capsys, one_way_csv):
    code, out, _ = run_cli(
        capsys, "window", str(one_way_csv), "--window", "50000", "--step", "50000", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, schema("window.schema.json"))
    assert len(payload["centers"]) == 4
    assert len(payload["pairs"]) == 2


def test_window_too_long_exit_2(capsys, tmp_path):
    data = tmp_path / "short.csv"
    assert main(["simulate", "--benchmark", "one_way_2d", "--n", "100", "--seed", "4", "-o", str(data)]) == 0
    code, _, err = run_cli(capsys, "window", str(data), "--window", "101")
    assert code == 2


def test_simulate_metadata_contract(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--benchmark", "one_way_2d", "--n", "500", "--seed", "7", "-o", str(out)]) == 0
    meta = json.loads((tmp_path / "sim.meta.json").read_text())
    jsonschema.validate(meta, schema("sim-meta.schema.json"))
    assert meta["true_edges"] == ["2->1"]
    assert meta["seed"] == 7
    assert meta["rng"] == "pcg64"
    assert meta["system"]["A"][0][1] == 0.5


def test_simulate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--benchmark", "one_way_2d", "--n", "2000", "--seed", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_text().replace('"a.csv"', "") \
        == (tmp_path / "b.meta.json").read_text().replace('"b.csv"', "")


def test_simulate_system_file_and_non_hurwitz(capsys, tmp_path):
    good = tmp_path / "sys.json"
    good.write_text('{"f": [0, 0], "A": [[-1, 0.5], [0, -1]], "B": [[1, 0], [0, 1]]}')
    out = tmp_path / "sys.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--system", str(good), "--n", "500", "--seed", "1", "-o", str(out)
    )
    assert code == 0
    meta = json.loads((tmp_path / "sys.meta.json").read_text())
    assert meta["benchmark"] is None
    assert meta["true_edges"] == ["2->1"]

    bad = tmp_path / "bad.json"
    bad.write_text('{"f": [0], "A": [[1.0]], "B": [[1.0]]}')
    code, _, err = run_cli(
        capsys, "simulate", "--system", str(bad), "--n", "500", "--seed", "1",
        "-o", str(tmp_path / "bad.csv"),
    )
    assert code == 4
    assert "stationary" in err


def test_simulate_unknown_benchmark_exit_2(tmp_path, capsys):
    code = main(["simulate", "--benchmark", "lorenz", "--n", "10", "-o", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


def test_headerless_ingestion(capsys, tmp_path):
    import numpy as np

    rng = np.random.default_rng(0)
    path = tmp_path / "raw.csv"
    rows = rng.standard_normal((30, 2))
    path.write_text("\n".join(f"{x},{y}" for x, y in rows) + "\n")
    code, out, _ = run_cli(
        capsys, "matrix", str(path), "--no-header", "--dt", "0.5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["labels"] == ["c0", "c1"]
    assert payload["dt"] == 0.5


def test_window_absent_values_become_empty_cells(capsys, tmp_path):
    import numpy as np

    rng = np.random.default_rng(1)
    a = rng.standard_normal(400)
    b = np.concatenate([np.zeros(200), rng.standard_normal(200)])
    path = tmp_path / "flat.csv"
    path.write_text("a,b\n" + "\n".join(f"{x},{y}" for x, y in zip(a, b)) + "\n")
    code, out, _ = run_cli(
        capsys, "window", str(path), "--window", "100", "--step", "100",
        "--source", "b", "--target", "a",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith(",,,") or lines[1].split(",")[1:] == ["", "", ""]
    assert lines[-1].split(",")[1] != ""


def test_henon_benchmark_metadata(tmp_path):
    out = tmp_path / "henon.csv"
    assert main(["simulate", "--benchmark", "henon", "--n", "300", "--seed", "1", "-o", str(out)]) == 0
    meta = json.loads((tmp_path / "henon.meta.json").read_text())
    assert meta["dt"] == 1.0
    assert meta["system"] is None
    assert sorted(meta["true_edges"]) == ["1->2", "2->1"]


def test_console_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "infoflow.cli"], capture_output=True, text=True
    )
    # module execution without args is a usage error (argparse exit 2)
    assert proc.returncode == 2


def test_commands_in_one_process_match_separate_processes(capsys, tmp_path):
    # main builds its parser once per process: after a refused flag, later
    # commands still print the bytes and exit codes of fresh processes
    data = tmp_path / "chain.csv"
    assert main(["simulate", "--benchmark", "chain_3", "--n", "3000", "--seed", "4", "-o", str(data)]) == 0
    window = ["window", str(data), "--window", "1000", "--step", "500", "--json"]
    runs = [window, ["matrix", str(data)], ["matrix", str(data), "--no-such-flag"], window,
            ["matrix", str(data), "--surrogates", "5", "--seed", "1"]]
    in_process = [run_cli(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 2]
    for argv, got in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "infoflow.cli", *argv], capture_output=True, text=True)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


def test_estimate_and_matrix_share_surrogate_p_values(capsys, tmp_path):
    data = tmp_path / "chain.csv"
    assert main(["simulate", "--benchmark", "chain_3", "--n", "4000", "--seed", "6", "-o", str(data)]) == 0
    code, out, _ = run_cli(capsys, "matrix", str(data), "--json", "--surrogates", "99", "--seed", "21")
    assert code == 0
    for flow in json.loads(out)["flows"]:
        code, est_out, _ = run_cli(
            capsys, "estimate", str(data), "--source", flow["source"], "--target", flow["target"],
            "--json", "--surrogates", "99", "--seed", "21",
        )
        assert code == 0
        estimate = json.loads(est_out)
        for key in ("flow", "stderr", "p_asymptotic", "p_surrogate"):
            assert estimate[key] == flow[key]


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_estimate_degenerate_normalizer_exit_4(capsys, tmp_path, json_flag):
    # a ramp target has a constant derivative: zero flow, zero self
    # influence and zero noise leave nothing to normalize by
    path = tmp_path / "ramp.csv"
    noise = make_rng(5).standard_normal(200)
    path.write_text("x,y\n" + "".join(f"{m},{v:.17g}\n" for m, v in enumerate(noise)))
    code, out, err = run_cli(
        capsys, "estimate", str(path), "--source", "y", "--target", "x", "--normalize", *json_flag
    )
    assert code == 4
    assert out == ""
    assert "all zero" in err


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in ("estimate", "matrix", "window") for f in (["--alpha", "0.1"], ["--correction", "bonferroni"])]
    + [("window", ["--normalize"]), ("graph", ["--normalize"]), ("graph", ["--per-step"])]
    + [("simulate", f) for f in (["--k", "2"], ["--json"], ["--alpha", "0.1"], ["--correction", "bonferroni"],
                                 ["--surrogates", "19"], ["--surrogate-method", "permutation"],
                                 ["--normalize"], ["--per-step"])]
    + [("graph", ["--json"])]
    + [(c, ["--surrogate-method", "circular_shift"]) for c in ("estimate", "matrix", "graph", "window")],
)
def test_flags_a_subcommand_does_not_read_exit_2(capsys, tmp_path, command, flag):
    data = tmp_path / "d.csv"
    argv = {
        "estimate": ["estimate", str(data), "--source", "x", "--target", "y"],
        "matrix": ["matrix", str(data)],
        "graph": ["graph", str(data)],
        "window": ["window", str(data), "--window", "100"],
        "simulate": ["simulate", "--benchmark", "one_way_2d", "--n", "200", "--seed", "1", "-o", str(data)],
    }[command]
    code, _, err = run_cli(capsys, *argv, *flag)
    assert code == 2
    assert "unrecognized arguments" in err


def test_simulate_coupling_zero_plants_no_edges(tmp_path):
    out = tmp_path / "zero.csv"
    argv = ["simulate", "--benchmark", "one_way_2d", "--coupling", "0", "--n", "200", "--seed", "1", "-o", str(out)]
    assert main(argv) == 0
    meta = json.loads((tmp_path / "zero.meta.json").read_text())
    assert meta["true_edges"] == []
    assert meta["params"]["coupling"] == 0.0


@pytest.mark.parametrize("flag", [["--coupling", "0.3"], ["--noise", "2"], ["--d", "3"]])
def test_simulate_system_refuses_benchmark_flags(capsys, tmp_path, flag):
    system = tmp_path / "sys.json"
    system.write_text('{"f": [0, 0], "A": [[-1, 0.5], [0, -1]], "B": [[1, 0], [0, 1]]}')
    code, _, err = run_cli(
        capsys, "simulate", "--system", str(system), "--n", "200", "--seed", "1",
        "-o", str(tmp_path / "sys.csv"), *flag,
    )
    assert code == 2
    assert flag[0][2:] in err


@pytest.mark.parametrize("flag, value", [("--coupling", "nan"), ("--coupling", "inf"), ("--coupling", "-inf"),
                                         ("--noise", "nan"), ("--noise", "inf"), ("--noise", "-1")])
def test_simulate_bad_coupling_or_noise_exit_2_before_any_seed(capsys, tmp_path, flag, value):
    # no --seed: the value is refused before a seed is generated and announced
    code, _, err = run_cli(
        capsys, "simulate", "--benchmark", "chain_3", "--n", "400", "-o", str(tmp_path / "c.csv"),
        f"{flag}={value}",
    )
    assert code == 2
    assert flag in err and "seed" not in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("flag, value", [("--n", "1"), ("--d", "0")])
def test_simulate_bad_size_exit_2_before_any_seed(capsys, tmp_path, flag, value):
    test_simulate_bad_coupling_or_noise_exit_2_before_any_seed(capsys, tmp_path, flag, value)


def test_simulate_independent_d_refuses_coupling(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "simulate", "--benchmark", "independent_d", "--d", "3", "--coupling", "3",
        "--n", "200", "--seed", "1", "-o", str(tmp_path / "ind.csv"),
    )
    assert code == 2
    assert "coupling" in err


@pytest.mark.parametrize("command", ["estimate", "matrix", "graph", "window"])
def test_negative_surrogate_count_exit_2(capsys, one_way_csv, command):
    extra = {
        "estimate": ["--source", "y", "--target", "x"],
        "matrix": [],
        "graph": [],
        "window": ["--window", "100000"],
    }[command]
    code, out, err = run_cli(capsys, command, str(one_way_csv), *extra, "--surrogates", "-5", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "surrogates" in err


def test_readme_options_table_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| subcommand |", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` +\|(.*)\|$", table, flags=re.MULTILINE))
    csv_parser = argparse.ArgumentParser()
    _ingest_flags(csv_parser)
    skip = {"-h", "--help", *csv_parser._option_string_actions}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(rows) == set(subparsers.choices)
    for command, sub in subparsers.choices.items():
        named = set(re.findall(r"`(-[-\w]+)`", rows[command]))
        options = [set(a.option_strings) - skip for a in sub._actions]
        options = [strings for strings in options if strings]
        assert all(strings & named for strings in options), command  # every option is listed
        assert named <= set().union(*options), command  # and nothing else is


@pytest.fixture
def short_chain_csv(tmp_path):
    path = tmp_path / "c.csv"
    assert main(["simulate", "--benchmark", "chain_3", "--n", "400", "--seed", "1", "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("flags", [["--time-column", "t", "--no-time-column"],
                                   ["--no-time-column", "--time-column", "t"]])
def test_time_column_and_no_time_column_exit_2(capsys, short_chain_csv, flags):
    code, out, err = run_cli(capsys, "matrix", str(short_chain_csv), *flags)
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


def test_no_time_column_reads_t_as_a_series(capsys, short_chain_csv):
    code, out, _ = run_cli(capsys, "matrix", str(short_chain_csv), "--no-time-column", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["labels"] == ["t", "x1", "x2", "x3"]
    assert report["dt"] == 1.0
    _, named, _ = run_cli(capsys, "matrix", str(short_chain_csv), "--time-column", "t", "--json")
    _, detected, _ = run_cli(capsys, "matrix", str(short_chain_csv), "--json")
    assert named == detected
    assert json.loads(detected)["labels"] == ["x1", "x2", "x3"]


@pytest.mark.parametrize("command", ["simulate", "graph", "window"])
def test_negative_seed_exit_2(capsys, tmp_path, short_chain_csv, command):
    argv = {
        "simulate": ["simulate", "--benchmark", "chain_3", "--n", "400", "-o", str(tmp_path / "neg.csv")],
        "graph": ["graph", str(short_chain_csv), "--surrogates", "19"],
        "window": ["window", str(short_chain_csv), "--window", "200", "--surrogates", "19"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--seed", "-3")
    assert code == 2
    assert out == ""
    assert "--seed" in err
    assert not (tmp_path / "neg.csv").exists()


@pytest.mark.parametrize("command,flag,value", [
    *((command, "--dt", dt) for command in ("estimate", "matrix", "graph", "window", "simulate")
      for dt in ("-1", "0", "nan", "inf")),
    ("simulate", "--burn-in", "-5"),
])
def test_bad_step_or_burn_in_exit_2(capsys, tmp_path, command, flag, value):
    data = tmp_path / "plain.csv"  # no time column, so --dt is allowed
    data.write_text("a,b\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in make_rng(9).standard_normal((300, 2))))
    out_csv = tmp_path / "sim.csv"
    argv = {
        "estimate": ["estimate", str(data), "--source", "a", "--target", "b"],
        "matrix": ["matrix", str(data)],
        "graph": ["graph", str(data)],
        "window": ["window", str(data), "--window", "100"],
        "simulate": ["simulate", "--benchmark", "chain_3", "--n", "400", "--seed", "1", "-o", str(out_csv)],
    }[command]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 2
    assert out == ""
    assert flag in err
    assert not out_csv.exists()


@pytest.mark.parametrize("count", ["-5", "5"])
def test_window_surrogate_count_checked_before_any_window(capsys, short_chain_csv, count):
    # every 4-sample window is too short for d=3, yet the count is refused
    code, out, err = run_cli(capsys, "window", str(short_chain_csv), "--window", "4", "--step", "100",
                             "--surrogates", count, "--seed", "1", "--json")
    assert code == 2
    assert out == ""
    assert "surrogates" in err


def test_simulate_help_describes_the_integration_step(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--help")
    assert code == 0
    text = " ".join(out.split())
    assert "--dt DT integration time step (default 0.01)" in text
    assert "without a time column" not in text


def test_readme_entry_points_resolve():
    import infoflow

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) >= 10
    for name in names:
        assert hasattr(infoflow, name) and name in infoflow.__all__, name


@pytest.mark.parametrize("where", ["header", "body"])
def test_non_utf8_csv_exit_3(capsys, tmp_path, where):
    path = tmp_path / "latin1.csv"
    body = b"".join(b"%.17g,%.17g\n" % (x, y) for x, y in make_rng(3).standard_normal((40, 2)))
    header = b"a,caf\xe9\n" if where == "header" else b"a,b\n"
    path.write_bytes(header + body + (b"0.5,0.\xe9\n" if where == "body" else b""))
    code, out, err = run_cli(capsys, "matrix", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("infoflow: data error: cannot read input")


@pytest.mark.parametrize("command", ["matrix", "window"])
@pytest.mark.parametrize("delimiter", [";;", ""])
def test_delimiter_not_one_character_exit_2(capsys, short_chain_csv, command, delimiter):
    argv = [command, str(short_chain_csv)] + (["--window", "200"] if command == "window" else [])
    code, out, err = run_cli(capsys, *argv, "--delimiter", delimiter)
    assert code == 2
    assert out == ""
    assert err.startswith("infoflow: error: bad delimiter")


@pytest.mark.parametrize("system", [
    '{"f": [0], "A": [["x"]], "B": [[1]]}',
    "[1, 2]",
    '{"f": [0, 0], "A": [[-1, 0], [0]], "B": [[1, 0], [0, 1]]}',
])
def test_simulate_malformed_system_exit_3(capsys, tmp_path, system):
    path = tmp_path / "s.json"
    path.write_text(system)
    code, out, err = run_cli(capsys, "simulate", "--system", str(path), "--n", "100", "--seed", "1",
                             "-o", str(tmp_path / "o.csv"))
    assert code == 3
    assert out == ""
    assert err.startswith("infoflow: data error:")
    assert not (tmp_path / "o.csv").exists()
