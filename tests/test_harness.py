"""Config plumbing, report artifacts, and the command-line front end."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from flowsilt.cli import main
from flowsilt.harness import (ConfigError, StatReport, _flag_check, _z_check,
                              config_from_dict, load_config, run_experiment,
                              suite_green, write_report)


NAN = float("nan")
INF = float("inf")


def base_dict() -> dict:
    return {
        "model": {"preset": "bm1d"},
        "sim": {"n": 16, "horizon": 0.5, "replicates": 40, "seed": 3},
    }


def write_config(tmp_path: Path, raw: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_preset_bm1d_expansion() -> None:
    cfg = config_from_dict(base_dict())
    assert cfg.dim == 1
    assert cfg.b == (1.0,)
    assert cfg.c == ((1.0,),)
    # defaults fill in everything that was not spelled out
    assert cfg.atoms == (((0.0,), 1.0),)
    assert cfg.sub_steps == 1
    assert cfg.lam == 1.0
    assert cfg.u == (0.0,)
    assert cfg.eps_schedule == (0.4, 0.2, 0.1, 0.05)
    assert cfg.suites == ()
    assert cfg.out_dir == "flowsilt-out"
    assert cfg.threads == 1
    assert cfg.mean_se == 3.0 and cfg.var_se == 5.0


def test_preset_flow3d_expansion() -> None:
    raw = base_dict()
    raw["model"] = {"preset": "flow3d"}
    cfg = config_from_dict(raw)
    assert cfg.dim == 3
    assert cfg.b == (1.0, 0.0, 0.0)
    assert cfg.c == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    assert cfg.u == (0.0, 0.0, 0.0)


def test_explicit_model_and_initial() -> None:
    raw = base_dict()
    raw["model"] = {"dim": 2, "b": [0.5, 0.5], "c": [[1, 0], [0, 1]]}
    raw["initial"] = [
        {"position": [0.0, 0.0], "mass": 0.5},
        {"position": [1.0, -1.0], "mass": 0.25},
    ]
    cfg = config_from_dict(raw)
    assert cfg.dim == 2
    assert cfg.atoms == (((0.0, 0.0), 0.5), ((1.0, -1.0), 0.25))
    assert cfg.initial().total_mass == pytest.approx(0.75)
    assert cfg.model().b_vec.shape == (2,)


def test_seed_is_mandatory() -> None:
    raw = base_dict()
    del raw["sim"]["seed"]
    with pytest.raises(ConfigError,
                       match="a seed is required; runs never draw entropy"):
        config_from_dict(raw)


def test_unknown_preset_lists_known_ones() -> None:
    raw = base_dict()
    raw["model"] = {"preset": "bogus"}
    with pytest.raises(ConfigError, match=r"unknown preset 'bogus'.*bm1d"):
        config_from_dict(raw)


def test_wrong_type_reports_key_and_type() -> None:
    raw = base_dict()
    raw["sim"]["n"] = "sixteen"
    with pytest.raises(ConfigError, match=r"key 'n' should be .* got str"):
        config_from_dict(raw)


@pytest.mark.parametrize("path", ["sim.n", "sim.replicates", "sim.seed",
                                  "silt.lambda", "threads"])
def test_json_booleans_are_not_numbers(path) -> None:
    """JSON true loads as a Python bool, which is also an int; a config
    that says "n": true must be refused, not run with n = 1."""
    with pytest.raises(ConfigError, match=r"should be .* got bool"):
        config_from_dict(mutate(path, True))


def mutate(path: str, value) -> dict:
    """Return base_dict() with one dotted key replaced."""
    raw = base_dict()
    node = raw
    parts = path.split(".")
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value
    return raw


@pytest.mark.parametrize("raw, message", [
    (mutate("model", {"dim": 0, "b": [], "c": []}), "model.dim must be >= 1"),
    (mutate("model", {"dim": 2, "b": [1.0], "c": [[1.0]]}),
     "b must have length 2"),
    (mutate("initial", []), "'initial' must be a nonempty list"),
    (mutate("initial", [{"position": [0.0, 0.0], "mass": 1.0}]),
     r"initial\[0\]: position length != dim"),
    (mutate("initial", [{"position": [0.0], "mass": 0.0}]),
     "mass must be positive"),
    (mutate("sim.n", -4), "n must be positive"),
    (mutate("sim.seed", -1), "seed must be a nonnegative integer"),
    (mutate("silt.lambda", 0.0), "lambda must be positive"),
    (mutate("silt.u", [0.0, 0.0]), "u length != dim"),
    (mutate("silt.eps", [0.4, -0.2]), "eps values must be positive"),
    (mutate("silt.eps", [0.2, 0.4]), "eps schedule must be strictly"),
    (mutate("suites", "mass"), "'suites' must be a list"),
    (mutate("suites", ["banana"]), "unknown suite 'banana'"),
    (mutate("model", {"dim": 1, "b": [1.0], "c": [[]]}), r"c be 1xm"),
    (mutate("model", {"dim": 1, "b": [1.0], "c": [1.0]}),
     "model.c a list of rows of numbers"),
    (mutate("sim.horizon", 0.53), "not a multiple of the grid step"),
    # Python's json reads NaN, Infinity and 1e400 as non-finite floats
    (mutate("model", {"dim": 1, "b": [NAN], "c": [[1.0]]}),
     "model.b must be finite"),
    (mutate("model", {"dim": 1, "b": [1.0], "c": [[INF]]}),
     "model.c must be finite"),
    (mutate("model", {"dim": 1, "b": [json.loads("1e400")], "c": [[1.0]]}),
     "model.b must be finite"),
    (mutate("initial", [{"position": [NAN], "mass": 1.0}]),
     "position must be finite"),
    (mutate("initial", [{"position": [0.0], "mass": INF}]),
     "'mass' must be finite"),
    (mutate("sim.horizon", INF), "'horizon' must be finite"),
    (mutate("sim.horizon", NAN), "'horizon' must be finite"),
    (mutate("silt.lambda", NAN), "'lambda' must be finite"),
    (mutate("silt.eps", [0.4, NAN, 0.1]), "eps must be finite"),
    (mutate("silt.u", [NAN]), "u must be finite"),
    (mutate("thresholds.mean_se", NAN), "'mean_se' must be finite"),
])
def test_config_rejections(raw: dict, message: str) -> None:
    with pytest.raises(ConfigError, match=message):
        config_from_dict(raw)


def test_config_hash_tracks_content_not_provenance() -> None:
    a = config_from_dict(base_dict(), source="a.json")
    b = config_from_dict(base_dict(), source="b.json")
    assert a.config_hash() == b.config_hash()

    reseeded = base_dict()
    reseeded["sim"]["seed"] = 4
    assert config_from_dict(reseeded).config_hash() != a.config_hash()

    # output routing is not part of the numeric identity
    rerouted = base_dict()
    rerouted["out"] = "elsewhere"
    assert config_from_dict(rerouted).config_hash() == a.config_hash()


def test_flow_dimension_may_differ_from_space_dimension() -> None:
    """c is dim x m for any m >= 1; square configs keep their hashes."""
    raw = mutate("model", {"dim": 1, "b": [1.0], "c": [[1.0, 0.5]]})
    cfg = config_from_dict(raw)
    assert cfg.model().flow_dim == 2
    assert cfg.model().dim == 1

    assert config_from_dict(base_dict()).config_hash() == "b08a5b7b1508ff18"
    square = base_dict()
    square["model"] = {"dim": 2, "b": [1.0, 0.5],
                       "c": [[1.0, 0.0], [0.2, 1.0]]}
    square["initial"] = [{"position": [0.0, 0.0], "mass": 1.0}]
    assert config_from_dict(square).config_hash() == "319f1f2b7405c885"


def test_load_config_round_trip(tmp_path: Path) -> None:
    path = write_config(tmp_path, base_dict())
    cfg = load_config(path)
    assert cfg.source == path
    assert cfg.config_hash() == config_from_dict(base_dict()).config_hash()


def test_load_config_invalid_json_points_at_location(tmp_path: Path) -> None:
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n nope}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"broken\.json:2:\d+: invalid JSON"):
        load_config(path)


def test_load_config_missing_file() -> None:
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/no/such/file.json")


def test_z_check_handles_zero_stderr() -> None:
    exact = _z_check("x", 1.0, 1.0, 0.0, 3.0, 0.0)
    assert exact.z == 0.0 and exact.passed
    off = _z_check("x", 1.0, 2.0, 0.0, 3.0, 0.0)
    assert math.isinf(off.z) and not off.passed
    scored = _z_check("x", 1.2, 1.0, 0.1, 3.0, 0.0)
    assert scored.z == pytest.approx(2.0)
    assert scored.passed


def test_flag_check_carries_no_z_score() -> None:
    c = _flag_check("x", True, 0.1, "detail text")
    assert c.passed and math.isnan(c.z) and math.isnan(c.threshold)


def test_report_exit_code() -> None:
    good = _flag_check("a", True, 0.0, "")
    bad = _flag_check("b", False, 0.0, "")
    assert StatReport("h", 1, [good]).exit_code == 0
    assert StatReport("h", 1, [good, bad]).exit_code == 1
    assert not StatReport("h", 1, [good, bad]).all_passed


def test_run_experiment_replays_byte_identical(tmp_path: Path) -> None:
    """The checks.csv body must be a pure function of (config, seed)."""
    raw = base_dict()
    raw["suites"] = ["genealogy"]
    csvs = []
    for sub in ("one", "two"):
        raw["out"] = str(tmp_path / sub)
        report = run_experiment(config_from_dict(raw, source=sub))
        assert report.all_passed
        csvs.append((tmp_path / sub / "checks.csv").read_bytes())
    assert csvs[0] == csvs[1]
    md = (tmp_path / "one" / "report.md").read_text(encoding="utf-8")
    assert "outcome: PASS" in md
    assert "genealogy.permutation_invariance" in md


def test_write_report_layout(tmp_path: Path) -> None:
    cfg = config_from_dict(base_dict())
    report = StatReport(cfg.config_hash(), cfg.seed,
                        [_z_check("demo", 1.1, 1.0, 0.2, 3.0, 0.01)])
    md_path, csv_path = write_report(report, cfg, tmp_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == f"# config_hash={cfg.config_hash()} seed={cfg.seed}"
    assert lines[1] == "name,estimate,oracle,stderr,z,threshold,passed"
    assert lines[2].startswith("demo,1.1")
    assert lines[2].endswith(",1")
    assert md_path.read_text(encoding="utf-8").count("| demo |") == 1


def test_run_experiment_rejects_degenerate_model(tmp_path: Path) -> None:
    raw = base_dict()
    raw["model"] = {"dim": 1, "b": [0.0], "c": [[0.0]]}
    raw["out"] = str(tmp_path / "out")
    with pytest.raises(ConfigError, match="model validation failed"):
        run_experiment(config_from_dict(raw))


def test_suite_green_passes_on_preset() -> None:
    cfg = config_from_dict(base_dict())
    checks = suite_green(cfg)
    names = [c.name for c in checks]
    assert names == ["green.closed_vs_quadrature", "green.mollified_mass",
                     "green.l1_localization"]
    assert all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_ok(tmp_path: Path, capsys) -> None:
    path = write_config(tmp_path, base_dict())
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "dim=1" in out


def test_cli_validate_flags_degenerate_model(tmp_path: Path, capsys) -> None:
    raw = base_dict()
    raw["model"] = {"dim": 1, "b": [0.0], "c": [[0.0]]}
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == 1
    assert "model validation FAILED" in capsys.readouterr().err


def test_cli_config_error_exits_2(tmp_path: Path, capsys) -> None:
    raw = base_dict()
    del raw["sim"]["seed"]
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_cli_seed_override(tmp_path: Path, capsys) -> None:
    path = write_config(tmp_path, base_dict())
    assert main(["validate", "--config", path, "--seed", "9"]) == 0
    assert "seed 9" in capsys.readouterr().out
    assert main(["validate", "--config", path, "--seed", "-2"]) == 2


def test_cli_thread_overrides(tmp_path: Path, capsys, monkeypatch) -> None:
    path = write_config(tmp_path, base_dict())
    assert main(["validate", "--config", path, "--threads", "0"]) == 2
    assert "thread count must be >= 1" in capsys.readouterr().err

    monkeypatch.setenv("FLOWSILT_THREADS", "two")
    assert main(["validate", "--config", path]) == 2
    assert "is not an integer" in capsys.readouterr().err

    monkeypatch.setenv("FLOWSILT_THREADS", "2")
    assert main(["validate", "--config", path]) == 0


def test_cli_non_integer_threads_in_config_exits_2(tmp_path: Path,
                                                   capsys) -> None:
    raw = base_dict()
    raw["threads"] = "x"
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "key 'threads' should be" in err


def test_cli_ragged_flow_coefficient_exits_2(tmp_path: Path, capsys) -> None:
    raw = mutate("model", {"dim": 2, "b": [1.0, 1.0],
                           "c": [[1.0, 0.5], [1.0]]})
    raw["initial"] = [{"position": [0.0, 0.0], "mass": 1.0}]
    path = write_config(tmp_path, raw)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "rows of one length" in err


def test_cli_simulate_writes_replicates(tmp_path: Path, capsys) -> None:
    raw = base_dict()
    raw["sim"]["replicates"] = 8
    path = write_config(tmp_path, raw)
    out_dir = tmp_path / "sim-out"
    assert main(["simulate", "--config", path, "--out", str(out_dir)]) == 0
    assert "wrote" in capsys.readouterr().out
    header = (out_dir / "replicates.csv").read_text().splitlines()[0]
    assert header == "replicate,t,mass,bump"


def test_cli_moments_prints_pass_lines(tmp_path: Path, capsys) -> None:
    raw = base_dict()
    raw["sim"]["replicates"] = 400
    raw["thresholds"] = {"mean_se": 12.0, "var_se": 12.0}
    path = write_config(tmp_path, raw)
    assert main(["moments", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] moments.order1_gaussian" in out
    assert "[PASS] moments.mc_order4" in out


def test_cli_silt_writes_components(tmp_path: Path) -> None:
    raw = base_dict()
    raw["sim"]["replicates"] = 12
    raw["silt"] = {"eps": [0.4, 0.2]}
    raw["out"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    assert main(["silt", "--config", path]) == 0
    lines = (tmp_path / "out" / "silt_components.csv").read_text().splitlines()
    assert lines[0] == ("replicate,eps,gamma,double_point,lambda_term,"
                       "boundary_term,stochastic_term,renormalized,"
                       "ito_residual")
    # 12 replicates at 2 radii each
    assert len(lines) == 25


def test_cli_eps_study_runs_and_writes(tmp_path: Path, capsys) -> None:
    raw = base_dict()
    raw["sim"]["replicates"] = 32
    raw["silt"] = {"eps": [0.4, 0.2, 0.1]}
    raw["thresholds"] = {"mean_se": 12.0, "var_se": 12.0}
    raw["out"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    rc = main(["eps-study", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "eps.cauchy_decrease" in out
    assert (tmp_path / "out" / "eps_study.csv").exists()


def test_cli_report_full_cycle(tmp_path: Path, capsys) -> None:
    raw = base_dict()
    raw["suites"] = ["genealogy", "green"]
    raw["out"] = str(tmp_path / "out")
    path = write_config(tmp_path, raw)
    assert main(["report", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "[PASS] genealogy.arrangement_table" in out
    assert "report:" in out
    assert (tmp_path / "out" / "checks.csv").exists()
    assert (tmp_path / "out" / "report.md").exists()


@pytest.mark.parametrize("sim, silt, commands, message", [
    # 5 recorded time points: too coarse for the double time integrals
    ({"n": 4, "horizon": 1.0, "sub_steps": 1}, {},
     [["eps-study"], ["report", "eps-study"], ["silt"], ["report", "ito"]],
     "at least 8 recorded time points"),
    ({}, {"eps": [0.4, 0.2]}, [["eps-study"]], "at least three eps values"),
    ({}, {"eps": []}, [["eps-study"], ["report", "ito"]],
     "eps schedule must not be empty"),
    ({"replicates": 1}, {}, [["report", "mass"], ["eps-study"]],
     "at least 2 replicates"),
    # 0.53 * 16 grid steps: the engine would stop at 0.5
    ({"horizon": 0.53, "sub_steps": 4}, {},
     [["silt"], ["report", "ito"], ["eps-study"]],
     "not a multiple of the grid step"),
    # NaN shift point: a spurious ito residual FAIL before it was refused
    ({}, {"u": [NAN]},
     [["validate"], ["simulate"], ["silt"], ["eps-study"], ["report", "ito"]],
     "u must be finite"),
], ids=["unresolved-grid", "two-eps", "no-eps", "one-replicate",
        "off-grid-horizon", "non-finite-u"])
def test_cli_refuses_inputs_without_a_meaningful_answer(
        tmp_path: Path, capsys, sim, silt, commands, message) -> None:
    for command in commands:
        raw = base_dict()
        raw["sim"].update(sim)
        raw["silt"] = silt
        raw["out"] = str(tmp_path / "out")
        if command[0] == "report":
            raw["suites"] = command[1:]
        path = write_config(tmp_path, raw)
        assert main([command[0], "--config", path]) == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:"), command
        assert message in captured.err, command
        assert "Traceback" not in captured.err
        assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
