import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mkbary import (
    ConstructionFailed,
    NumericalFailure,
    barycenter_fixed_support,
    barycenter_free_support,
    barycenter_quantile_1d,
    cli,
    glue,
    problem_from_json,
    solve_transport,
)
from mkbary.barycenter import FREE_INIT_SEED
from mkbary.cli import main
from mkbary.verify import SUITES

MEASURE_01 = {"space": {"kind": "euclidean", "dim": 1},
              "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5]}
MEASURE_12 = {"space": {"kind": "euclidean", "dim": 1},
              "atoms": [[1.0], [2.0]], "weights": [0.5, 0.5]}
COST_ABS = {"kind": "norm_power", "p": 1}
COST_SQ = {"kind": "norm_power", "p": 2}


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_transport_identical_measures(tmp_path, capsys):
    mu = write(tmp_path / "mu.json", MEASURE_01)
    cost = write(tmp_path / "c.json", COST_ABS)
    rc = main(["transport", mu, mu, cost, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["subcommand"] == "transport"


def test_transport_worked_example(tmp_path, capsys):
    mu = write(tmp_path / "mu.json", MEASURE_01)
    nu = write(tmp_path / "nu.json", MEASURE_12)
    cost = write(tmp_path / "c.json", COST_ABS)
    plan_path = tmp_path / "plan.json"
    rc = main(["transport", mu, nu, cost, "--plan", str(plan_path), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"
    plan = json.loads(plan_path.read_text())
    assert plan["objective"] == 1.0
    assert plan["gap"] <= 1e-9 * 2


def test_plan_file_is_the_one_shot_encoding(tmp_path, capsys):
    import io

    import numpy as np

    from mkbary import measure_from_json
    from mkbary.costs import cost_from_json
    from mkbary.transport import plan_to_json

    rng = np.random.default_rng(5)
    plane = {"kind": "euclidean", "dim": 2}
    cases = [(MEASURE_01, MEASURE_12)]
    for m, n in [(1, 4), (5, 1), (12, 9)]:
        cases.append(tuple({"space": plane, "atoms": rng.uniform(size=(k, 2)).tolist(),
                            "weights": rng.dirichlet(np.ones(k)).tolist()} for k in (m, n)))
    for k, (mu_obj, nu_obj) in enumerate(cases):
        mu, nu = write(tmp_path / "mu.json", mu_obj), write(tmp_path / "nu.json", nu_obj)
        cost = write(tmp_path / "c.json", COST_SQ)
        plan_path = tmp_path / f"plan{k}.json"
        assert main(["transport", mu, nu, cost, "--plan", str(plan_path),
                     "--out-dir", str(tmp_path)]) == 0
        plan = solve_transport(measure_from_json(mu_obj), measure_from_json(nu_obj),
                               cost_from_json(COST_SQ))
        assert plan_path.read_bytes() == (
            json.dumps(plan_to_json(plan), sort_keys=True) + "\n").encode()
    # a plan without certificate fields
    bare = dataclasses.replace(plan, duals=None, gap=None)
    fh = io.StringIO()
    cli._write_plan(fh, bare)
    assert fh.getvalue() == json.dumps(plan_to_json(bare), sort_keys=True) + "\n"


def test_plan_writer_matches_json_on_signed_zeros_and_one_row():
    import io

    import numpy as np

    from mkbary import measure_from_json
    from mkbary.costs import cost_from_json
    from mkbary.transport import plan_to_json

    line = {"kind": "euclidean", "dim": 1}
    one = {"space": line, "atoms": [[0.5]], "weights": [1.0]}
    three = {"space": line, "atoms": [[0.0], [1.0], [2.0]], "weights": [0.25, 0.25, 0.5]}
    cost = cost_from_json(COST_SQ)
    row = solve_transport(measure_from_json(one), measure_from_json(three), cost)
    square = solve_transport(measure_from_json(three), measure_from_json(three), cost)
    signed = square.coupling.copy()
    signed[0, 1], signed[2, 0] = -0.0, 1e-300
    cases = [row, square, dataclasses.replace(square, coupling=signed)]
    assert row.coupling.shape == (1, 3) and np.signbit(signed[0, 1])
    for plan in cases:
        fh = io.StringIO()
        cli._write_plan(fh, plan)
        assert fh.getvalue() == json.dumps(plan_to_json(plan), sort_keys=True) + "\n"
    assert "-0.0" in fh.getvalue()


def test_transport_creates_out_dir_for_plan(tmp_path, capsys):
    mu = write(tmp_path / "mu.json", MEASURE_01)
    nu = write(tmp_path / "nu.json", MEASURE_12)
    cost = write(tmp_path / "c.json", COST_ABS)
    # two new levels, and the plan named by a path that is not the out dir's spelling
    new_dir = tmp_path / "newdir" / "sub"
    rc = main(["transport", mu, nu, cost, "--plan", str(new_dir / ".." / "sub" / "plan.json"),
               "--out-dir", str(new_dir)])
    assert rc == 0
    assert json.loads((new_dir / "plan.json").read_text())["objective"] == 1.0
    assert (new_dir / "manifest.json").is_file()


@pytest.mark.parametrize("command", ["transport", "barycenter", "verify", "constants"])
def test_an_out_dir_that_cannot_be_written_is_a_usage_error_before_any_solve(
        tmp_path, capsys, monkeypatch, command):
    _no_lp(monkeypatch)
    mu = write(tmp_path / "mu.json", MEASURE_01)
    cost = write(tmp_path / "c.json", COST_SQ)
    problem = write(tmp_path / "p.json", {"inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
                                          "constraint": {"kind": "quantile_1d"}, "cost": COST_SQ})
    argv = {"transport": ["transport", mu, mu, cost, "--plan", str(tmp_path / "plan.json")],
            "barycenter": ["barycenter", problem], "verify": ["verify", "criterion"],
            "constants": ["constants", cost]}[command]
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(tmp_path.rglob("*"))
    for out in (afile, afile / "x", afile / "x" / "y"):
        assert main(argv + ["--out-dir", str(out)]) == 4
        assert capsys.readouterr() == (
            "", f"usage error: cannot write --out-dir: {str(afile)!r} is not a writable directory\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_transport_unwritable_plan_is_usage_error(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the solver ran before the plan path was checked")

    monkeypatch.setattr(cli, "solve_transport", never)
    mu = write(tmp_path / "mu.json", MEASURE_01)
    cost = write(tmp_path / "c.json", COST_ABS)
    plan_path = tmp_path / "missing" / "plan.json"
    rc = main(["transport", mu, mu, cost, "--plan", str(plan_path), "--out-dir", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not plan_path.parent.exists()
    rc = main(["transport", mu, mu, cost, "--plan", str(tmp_path), "--out-dir", str(tmp_path)])
    assert rc == 4
    capsys.readouterr()
    # a new out dir is not made when the plan is refused
    before = sorted(tmp_path.rglob("*"))
    for out_dir in (tmp_path / "newout", tmp_path / "newout" / "sub"):
        rc = main(["transport", mu, mu, cost, "--plan", str(plan_path), "--out-dir", str(out_dir)])
        assert rc == 4
        assert capsys.readouterr().err == (f"usage error: cannot write --plan: directory "
                                           f"{str(plan_path.parent)!r} does not exist\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_transport_failed_solve_leaves_no_plan(tmp_path, capsys, monkeypatch):
    def failing(*args):
        raise NumericalFailure("forced")

    monkeypatch.setattr(cli, "solve_transport", failing)
    mu = write(tmp_path / "mu.json", MEASURE_01)
    cost = write(tmp_path / "c.json", COST_ABS)
    plan_path = tmp_path / "plan.json"
    rc = main(["transport", mu, mu, cost, "--plan", str(plan_path), "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "numerical error: forced\n"
    assert not plan_path.exists()


def test_certificate_violation_is_numerical_error(tmp_path, capsys, monkeypatch):
    def tampered(mu, nu, cost):
        plan = solve_transport(mu, nu, cost)
        bad = dataclasses.replace(plan, coupling=plan.coupling[::-1].copy())
        bad.check(cost.matrix(mu, nu))
        return bad

    monkeypatch.setattr(cli, "solve_transport", tampered)
    mu = write(tmp_path / "mu.json", MEASURE_01)
    nu = write(tmp_path / "nu.json", dict(MEASURE_12, weights=[0.25, 0.75]))
    cost = write(tmp_path / "c.json", COST_SQ)
    rc = main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("numerical error: transport plan fails its")


def test_marginal_mismatch_is_numerical_error(tmp_path, capsys, monkeypatch):
    def glued(mu, nu, cost):
        return glue(solve_transport(mu, nu, cost), solve_transport(nu, mu, cost))

    monkeypatch.setattr(cli, "solve_transport", glued)
    mu = write(tmp_path / "mu.json", MEASURE_01)
    nu = write(tmp_path / "nu.json", MEASURE_12)
    cost = write(tmp_path / "c.json", COST_ABS)
    rc = main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "numerical error: plans do not share their second marginal\n")


def test_transport_validates_a_shared_finite_space_once(tmp_path, capsys, monkeypatch):
    import mkbary.measures as measures

    checks = []
    real = measures._violates_triangle
    monkeypatch.setattr(measures, "_violates_triangle", lambda rho: checks.append(1) or real(rho))
    space = {"kind": "finite", "n": 3, "rho": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]}
    mu = write(tmp_path / "mu.json", {"space": space, "atoms": [0, 1], "weights": [0.5, 0.5]})
    nu = write(tmp_path / "nu.json", {"space": space, "atoms": [2], "weights": [1.0]})
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "1.75"
    assert len(checks) == 1
    other = dict(space, rho=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    nu = write(tmp_path / "nu.json", {"space": other, "atoms": [2], "weights": [1.0]})
    assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 2
    assert len(checks) == 3
    assert "parse error" in capsys.readouterr().err


def test_multi_measure_loaders_validate_a_shared_finite_space_once(monkeypatch):
    import mkbary.measures as measures
    from mkbary.consistency import population_from_json

    checks = []
    real = measures._violates_triangle
    monkeypatch.setattr(measures, "_violates_triangle", lambda rho: checks.append(1) or real(rho))
    rng = np.random.default_rng(5)
    points = rng.uniform(size=(40, 2))
    space = {"kind": "finite", "n": 40,
             "rho": np.linalg.norm(points[:, None] - points[None, :], axis=-1).tolist()}
    # each measure carries its own copy of the space, as a decoded file does
    objs = [{"space": json.loads(json.dumps(space)), "atoms": [i, i + 10, i + 20],
             "weights": [0.25, 0.25, 0.5]} for i in range(3)]
    problem = problem_from_json({"inputs": [{"measure": m, "lambda": 1.0} for m in objs],
                                 "constraint": {"kind": "simplex_over", "atoms": [0, 10, 20]},
                                 "cost": {"kind": "metric_power", "p": 1}})
    assert len(checks) == 1 and len(problem.inputs) == 3
    assert all(m.space is problem.inputs[0][0].space for m, _ in problem.inputs)
    population = population_from_json({"measures": objs, "probs": [0.5, 0.25, 0.25]})
    assert len(checks) == 2 and len(population.atoms) == 3
    # a space that differs is decoded and validated on its own
    objs[2]["space"]["rho"] = (2 * np.array(space["rho"])).tolist()
    with pytest.raises(ValueError, match="share a ground space"):
        population_from_json({"measures": objs, "probs": [0.5, 0.25, 0.25]})
    assert len(checks) == 4


FINITE_3 = {"kind": "finite", "n": 3, "rho": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]]}
FINITE_MU = {"space": FINITE_3, "atoms": [0, 1], "weights": [0.5, 0.5]}
FINITE_NU = {"space": FINITE_3, "atoms": [2], "weights": [1.0]}

# formatting -> (text of a measure file, the group of formattings that write
# its "space" value as the same text)
FORMATTINGS = {
    "compact": (json.dumps, "compact"),
    "indent": (lambda obj: json.dumps(obj, indent=1), "indent"),
    "space-last": (lambda obj: json.dumps({k: obj[k] for k in ("atoms", "weights", "space")}),
                   "compact"),
    # the last of two "space" members wins
    "duplicate": (lambda obj: '{"space": {"kind": "euclidean", "dim": 9}, ' + json.dumps(obj)[1:],
                  "compact"),
    "escaped-key": (lambda obj: json.dumps(obj).replace('"space"', '"sp\\u0061ce"'), "compact"),
    "whitespace": (lambda obj: json.dumps(obj, separators=(" ,\n", " :\t")), "whitespace"),
}


@pytest.mark.parametrize("mu_format", ["compact", "indent", "duplicate", "whitespace"])
@pytest.mark.parametrize("nu_format", list(FORMATTINGS))
def test_measure_files_load_as_json_loads_reads_them(tmp_path, capsys, mu_format, nu_format):
    texts = [FORMATTINGS[mu_format][0](FINITE_MU), FORMATTINGS[nu_format][0](FINITE_NU)]
    paths = []
    for name, text in zip(("mu", "nu"), texts):
        (tmp_path / f"{name}.json").write_text(text)
        paths.append(str(tmp_path / f"{name}.json"))
    mu_obj, nu_obj = cli._load_measure_files(paths)
    assert mu_obj == json.loads(texts[0]) and nu_obj == json.loads(texts[1])
    same_text = FORMATTINGS[mu_format][1] == FORMATTINGS[nu_format][1]
    assert (nu_obj["space"] is mu_obj["space"]) == same_text
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", *paths, cost, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == ("1.75\n", "")


MALFORMED = {
    "empty": "",
    "truncated": json.dumps(FINITE_NU)[:40],
    "trailing data": json.dumps(FINITE_NU) + " x",
    "array": json.dumps([FINITE_NU]),
    "bom": "\ufeff" + json.dumps(FINITE_NU),
    "trailing comma": json.dumps(FINITE_NU)[:-1] + ", }",
    "no value": '{"space": }',
    "no colon": '{"space" 1}',
}


@pytest.mark.parametrize("which", [0, 1])
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_measure_files_are_parse_errors_as_json_loads_reports_them(
        tmp_path, capsys, which, name):
    paths = [tmp_path / "mu.json", tmp_path / "nu.json"]
    paths[0].write_text(json.dumps(FINITE_MU))
    paths[1].write_text(json.dumps(FINITE_NU))
    paths[which].write_text(MALFORMED[name])
    try:
        message = f"the top level must be a JSON object, not {type(json.loads(paths[which].read_text())).__name__}"
    except json.JSONDecodeError as exc:
        message = str(exc)
    message = f"{paths[which]}: {message.replace('list', 'array')}"
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", *map(str, paths), cost, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n")


def test_a_space_value_that_runs_on_past_the_shared_text_is_decoded(tmp_path):
    # "12" starts with the first file's "1" but is another number
    for text, space in [('{"space": 12}', 12), ('{"space": 1e5}', 1e5), ('{"space": 1 }', 1)]:
        (tmp_path / "mu.json").write_text('{"space": 1}')
        (tmp_path / "nu.json").write_text(text)
        objs = cli._load_measure_files([str(tmp_path / "mu.json"), str(tmp_path / "nu.json")])
        assert objs == [{"space": 1}, {"space": space}]


@pytest.mark.parametrize("space, key", [({"kind": "euclidean", "dim": 1}, "dim"),
                                        ({"kind": "finite", "n": 1, "rho": [[0.0]]}, "n")])
def test_a_boolean_in_an_equal_space_is_still_a_parse_error(tmp_path, capsys, space, key):
    # true == 1 in Python, so the second space compares equal to the first
    atoms = [[0.0]] if key == "dim" else [0]
    mu = write(tmp_path / "mu.json", {"space": space, "atoms": atoms, "weights": [1.0]})
    nu = write(tmp_path / "nu.json", {"space": dict(space, **{key: True}), "atoms": atoms,
                                      "weights": [1.0]})
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: space field {key!r} must be a number, not boolean\n")


def test_transport_malformed_weights(tmp_path, capsys):
    bad = dict(MEASURE_01, weights=[0.7, 0.2])
    mu = write(tmp_path / "mu.json", MEASURE_01)
    nb = write(tmp_path / "bad.json", bad)
    cost = write(tmp_path / "c.json", COST_ABS)
    plan_path = tmp_path / "plan.json"
    rc = main(["transport", mu, nb, cost, "--plan", str(plan_path), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "parse error" in capsys.readouterr().err
    # validation failures must not leave partial output files behind
    assert not plan_path.exists()
    assert not (tmp_path / "manifest.json").exists()


def test_transport_rejects_non_finite_measures(tmp_path, capsys):
    # json writes and reads NaN and Infinity; neither may reach the LP
    nan, inf = float("nan"), float("inf")
    mu = write(tmp_path / "mu.json", MEASURE_01)
    cost = write(tmp_path / "c.json", COST_SQ)
    cases = [(dict(MEASURE_01, atoms=[[nan], [nan]]), "atom coordinates must be finite"),
             (dict(MEASURE_01, atoms=[[0.0], [inf]]), "atom coordinates must be finite"),
             (dict(MEASURE_01, weights=[nan, 1.0]), "weights must be finite")]
    for bad, message in cases:
        nu = write(tmp_path / "nu.json", bad)
        assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")
    assert not (tmp_path / "manifest.json").exists()


def test_barycenter_quantile_two_diracs(tmp_path, capsys):
    problem = {
        "inputs": [
            {"measure": {"space": {"kind": "euclidean", "dim": 1},
                         "atoms": [[0.0]], "weights": [1.0]}, "lambda": 0.5},
            {"measure": {"space": {"kind": "euclidean", "dim": 1},
                         "atoms": [[1.0]], "weights": [1.0]}, "lambda": 0.5},
        ],
        "constraint": {"kind": "quantile_1d"},
        "cost": COST_SQ,
    }
    pf = write(tmp_path / "prob.json", problem)
    rc = main(["barycenter", pf, "--method", "quantile1d", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.25"
    out = json.loads((tmp_path / "barycenter.json").read_text())
    assert out["measure"]["atoms"] == [[0.5]]


def test_barycenter_single_input_zero(tmp_path, capsys):
    problem = {
        "inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
        "constraint": {"kind": "simplex_over", "atoms": [[0.0], [1.0]]},
        "cost": COST_SQ,
    }
    pf = write(tmp_path / "prob.json", problem)
    rc = main(["barycenter", pf, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) <= 1e-10


def test_barycenter_quantile_rejects_2d(tmp_path, capsys):
    problem = {
        "inputs": [{"measure": {"space": {"kind": "euclidean", "dim": 2},
                                "atoms": [[0.0, 0.0]], "weights": [1.0]}, "lambda": 1.0}],
        "constraint": {"kind": "quantile_1d"},
        "cost": COST_SQ,
    }
    pf = write(tmp_path / "prob.json", problem)
    rc = main(["barycenter", pf, "--method", "quantile1d", "--out-dir", str(tmp_path)])
    assert rc == 4


def test_barycenter_wrong_method_is_usage_error(tmp_path, capsys):
    finite = {"space": {"kind": "finite", "rho": [[0.0, 1.0], [1.0, 0.0]]},
              "atoms": [0, 1], "weights": [0.5, 0.5]}
    problem = {"inputs": [{"measure": finite, "lambda": 1.0}],
               "constraint": {"kind": "simplex_over", "atoms": [0, 1]},
               "cost": {"kind": "metric_power", "p": 1}}
    pf = write(tmp_path / "finite.json", problem)
    rc = main(["barycenter", pf, "--method", "free", "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "usage error" in capsys.readouterr().err
    # a metric power is not a convex translation cost, so no quantile route
    problem = {"inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
               "constraint": {"kind": "quantile_1d"},
               "cost": {"kind": "metric_power", "p": 2}}
    pf = write(tmp_path / "line.json", problem)
    rc = main(["barycenter", pf, "--out-dir", str(tmp_path)])
    assert rc == 4
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "barycenter.json").exists()


def test_barycenter_seed_is_for_the_free_route_alone(tmp_path, capsys, monkeypatch):
    dirac = {"space": {"kind": "euclidean", "dim": 1}, "weights": [1.0]}
    inputs = [{"measure": dict(dirac, atoms=[[x]]), "lambda": 0.5} for x in (0.0, 1.0)]
    for kind, solver in (("simplex_over", "barycenter_fixed_support"),
                         ("quantile_1d", "barycenter_quantile_1d")):
        pf = write(tmp_path / f"{kind}.json", {"inputs": inputs, "cost": COST_SQ,
                                               "constraint": ROUTE_CONSTRAINTS[kind]})
        out = tmp_path / f"{kind}-seeded"
        with monkeypatch.context() as mp:
            mp.setattr(cli, solver, lambda *a, **k: pytest.fail("solved before the seed check"))
            assert main(["barycenter", pf, "--seed", "5", "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage error: --seed 5: ") and err.count("\n") == 1
        assert not out.exists()
        # without a seed the run records none
        assert main(["barycenter", pf, "--out-dir", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"method": cli.METHODS[kind]}
    free = write(tmp_path / "free.json", {"inputs": inputs, "cost": COST_SQ,
                                          "constraint": ROUTE_CONSTRAINTS["free"]})
    real = cli.barycenter_free_support
    used = []
    monkeypatch.setattr(cli, "barycenter_free_support",
                        lambda problem, init_seed: used.append(init_seed) or real(problem, init_seed))
    # the manifest records the seed the free route ran with
    for argv, seed in (([], FREE_INIT_SEED), (["--seed", "5"], 5)):
        out = tmp_path / f"free-{seed}"
        assert main(["barycenter", free, *argv, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"method": "free", "seed": seed} and used[-1] == seed


ROUTE_CONSTRAINTS = {"simplex_over": {"kind": "simplex_over", "atoms": [[0.0], [1.0]]},
                     "free": {"kind": "free", "k": 1},
                     "quantile_1d": {"kind": "quantile_1d"}}
ROUTES = {"fixed": barycenter_fixed_support, "free": barycenter_free_support,
          "quantile1d": barycenter_quantile_1d}


@pytest.mark.parametrize("kind", list(ROUTE_CONSTRAINTS))
@pytest.mark.parametrize("method", list(ROUTES))
def test_the_constraint_picks_the_barycenter_route(tmp_path, capsys, kind, method):
    dirac = {"space": {"kind": "euclidean", "dim": 1}, "weights": [1.0]}
    problem = {"inputs": [{"measure": dict(dirac, atoms=[[x]]), "lambda": 0.5}
                          for x in (0.0, 1.0)],
               "constraint": ROUTE_CONSTRAINTS[kind], "cost": COST_SQ}
    pf = write(tmp_path / "prob.json", problem)
    assert main(["barycenter", pf, "--out-dir", str(tmp_path / "plain")]) == 0
    # the candidate set {0, 1} keeps the atom off 0.5
    assert capsys.readouterr().out == ("0.5\n" if kind == "simplex_over" else "0.25\n")
    plain = (tmp_path / "plain" / "barycenter.json").read_bytes()
    out = tmp_path / "flagged"
    rc = main(["barycenter", pf, "--method", method, "--out-dir", str(out)])
    route, prob = ROUTES[method], problem_from_json(problem)
    if cli.METHODS[kind] == method:
        assert rc == 0
        assert (out / "barycenter.json").read_bytes() == plain
        assert route(prob).objective == json.loads(plain)["objective"]
    else:
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --method {method} ") and err.count("\n") == 1
        assert not out.exists()
        needed = {m: k for k, m in cli.METHODS.items()}[method]
        with pytest.raises(ValueError, match=f"needs a {needed} constraint, not {kind}"):
            route(prob)


@pytest.mark.parametrize("command", ["transport", "barycenter", "verify", "constants"])
def test_json_of_the_wrong_type_is_a_parse_error(tmp_path, capsys, command):
    mu = write(tmp_path / "mu.json", MEASURE_01)
    cost = write(tmp_path / "c.json", COST_SQ)
    for k, text in enumerate(["[1, 2]", '"x"', "5", "null"]):
        bad = tmp_path / f"bad{k}.json"
        bad.write_text(text)
        argv = {"transport": ["transport", mu, str(bad), cost],
                "barycenter": ["barycenter", str(bad)],
                "verify": ["verify", "convexity", "--config", str(bad)],
                "constants": ["constants", str(bad)]}[command]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {bad}: the top level must be a JSON object, not ")
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


BAD_FIELDS = [
    ("problem", {"inputs": 5}, "problem field 'inputs' must be an array of objects, not number"),
    ("problem", {"inputs": [5]}, "problem field 'inputs' must be an array of objects"),
    ("problem", {"constraint": [1]}, "problem field 'constraint' must be an object, not array"),
    ("problem", {"constraint": {"kind": "free", "k": [1]}},
     "constraint field 'k' must be a number, not array"),
    ("problem", {"constraint": {"kind": "grid", "shape": 5, "box": 3}},
     "constraint field 'box' must be an array of numbers, not number"),
    ("problem", {"inputs": [{"measure": MEASURE_01, "lambda": [1]}]},
     "input field 'lambda' must be a number, not array"),
    ("measure", {"weights": {"a": 1}},
     "measure field 'weights' must be an array of numbers, not object"),
    ("measure", {"atoms": [{}, {}]}, "measure field 'atoms' must be an array of numbers"),
    ("measure", {"space": 5}, "measure field 'space' must be an object, not number"),
    ("measure", {"space": {"kind": "euclidean", "dim": [1]}},
     "space field 'dim' must be a number, not array"),
    ("cost", {"p": [2]}, "cost field 'p' must be a number, not array"),
    ("cost", {"declared_constants": 5},
     "cost field 'declared_constants' must be an object, not number"),
    ("config", {"count": [1]}, "convexity field 'count' must be a number, not array"),
    ("config", {"t_grid": 5}, "convexity field 't_grid' must be an array of numbers, not number"),
    ("config", {"cost": 5}, "convexity field 'cost' must be an object, not number"),
]


@pytest.mark.parametrize("where, fields, message", BAD_FIELDS)
def test_fields_of_the_wrong_type_are_parse_errors(tmp_path, capsys, where, fields, message):
    problem = {"inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
               "constraint": {"kind": "free", "k": 1}, "cost": COST_SQ}
    obj = {"problem": problem, "measure": MEASURE_01, "cost": COST_SQ, "config": {}}[where]
    bad = write(tmp_path / "bad.json", {**obj, **fields})
    good_mu = write(tmp_path / "mu.json", MEASURE_01)
    good_cost = write(tmp_path / "c.json", COST_SQ)
    argv = {"problem": ["barycenter", bad],
            "measure": ["transport", good_mu, bad, good_cost],
            "cost": ["transport", good_mu, good_mu, bad],
            "config": ["verify", "convexity", "--config", bad]}[where]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("where, key, value", [
    ("convexity", "count", 2.5), ("convexity", "seed", 0.5), ("convexity", "max_atoms", True),
    ("generator", "count", 2.5), ("generator", "seed", 1.5), ("generator", "max_atoms", 3.5),
    ("constraint", "k", 1.5), ("euclidean", "dim", 1.5), ("finite", "n", 2.0000001)])
def test_integer_settings_reject_fractions_and_booleans(tmp_path, capsys, where, key, value):
    generator = SMALL_LLN["population"]["generator"]
    space = {"euclidean": {"kind": "euclidean", "dim": 1},
             "finite": {"kind": "finite", "n": 2, "rho": [[0.0, 1.0], [1.0, 0.0]]}}
    what, obj = {
        "convexity": ("convexity", {key: value}),
        "generator": ("generator", {**SMALL_LLN, "population": {"generator":
                                                                {**generator, key: value}}}),
        "constraint": ("constraint", {"inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
                                      "constraint": {"kind": "free", key: value},
                                      "cost": COST_SQ}),
        "euclidean": ("space", {**MEASURE_01, "space": {**space["euclidean"], key: value}}),
        "finite": ("space", {"space": {**space["finite"], key: value}, "atoms": [0, 1],
                             "weights": [0.5, 0.5]}),
    }[where]
    bad = write(tmp_path / "bad.json", obj)
    cost = write(tmp_path / "c.json", COST_SQ)
    argv = {"convexity": ["verify", "convexity", "--config", bad],
            "generator": ["verify", "lln", "--config", bad],
            "constraint": ["barycenter", bad]}.get(where, ["transport", bad, bad, cost])
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    noun = "a number, not boolean" if isinstance(value, bool) else f"an integer, not {value!r}"
    assert capsys.readouterr().err == f"parse error: {what} field {key!r} must be {noun}\n"
    assert not out.exists()


def test_integral_floats_are_integer_settings(tmp_path, capsys):
    runs = {}
    for name, config in (("ints", {"count": 2, "seed": 3, "max_atoms": 2}),
                         ("floats", {"count": 2.0, "seed": 3.0, "max_atoms": 2.0})):
        cfg = write(tmp_path / f"{name}.json", config)
        assert main(["verify", "convexity", "--config", cfg, "--out-dir",
                     str(tmp_path / name)]) == 0
        runs[name] = (tmp_path / name / "convexity.csv").read_bytes()
    assert runs["floats"] == runs["ints"]
    assert len(runs["ints"].splitlines()) == 1 + 2 * 5  # header + count * |t_grid|


def test_constants_output(tmp_path, capsys):
    cost = write(tmp_path / "c.json", COST_SQ)
    rc = main(["constants", cost, "--out-dir", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"A": 0.0, "B": 2.0, "q": 6.0, "q0": 2.0, "provenance": "analytic"}


def test_a_declared_q0_without_q_is_used(tmp_path, capsys):
    # the declared q0 used to be read only next to a declared q, so this
    # printed q0 2.0, the one derived from B, as declared
    for declared, q, q0 in (({"B": 2, "q0": 5}, 6.0, 5.0), ({"B": 1, "q0": 4}, 4.0, 4.0)):
        cost = write(tmp_path / "c.json", {**COST_SQ, "declared_constants": declared})
        assert main(["constants", cost, "--out-dir", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"A": 0.0, "B": float(declared["B"]), "q": q, "q0": q0,
                       "provenance": "declared"}


def test_transport_with_an_infinite_cost_is_parse_error(tmp_path, capsys):
    space = {"kind": "finite", "n": 3, "rho": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
    mu = write(tmp_path / "mu.json", {"space": space, "atoms": [0, 1], "weights": [0.5, 0.5]})
    nu = write(tmp_path / "nu.json", {"space": space, "atoms": [1, 2], "weights": [0.5, 0.5]})
    cost = tmp_path / "c.json"
    cost.write_text('{"kind": "finite_matrix", "values": [[0, 1e400, 1], [1, 0, 1], [1, 1, 0]]}')
    rc = main(["transport", mu, nu, str(cost), "--out-dir", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == "parse error: finite cost matrix entries must be finite\n"


def _one_by_two(tmp_path, rho):
    """A 1x2 transport on a two-point space: its one feasible plan skips the LP."""
    space = {"kind": "finite", "n": 2, "rho": rho}
    mu = write(tmp_path / "mu.json", {"space": space, "atoms": [0], "weights": [1.0]})
    nu = write(tmp_path / "nu.json", {"space": space, "atoms": [0, 1], "weights": [0.5, 0.5]})
    return mu, nu


def test_transport_rejects_an_overflowing_table(tmp_path, capsys):
    # 1e400 parses as inf; the 1x2 plan would print it as the cost
    mu, nu = _one_by_two(tmp_path, [[0, 1], [1, 0]])
    cost = tmp_path / "c.json"
    cost.write_text('{"kind": "finite_matrix", "values": [[0, 1e400], [1, 0]]}')
    assert main(["transport", mu, nu, str(cost), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "parse error: finite cost matrix entries must be finite\n")
    mu, nu = _one_by_two(tmp_path, [[0, 1e400], [1e400, 0]])
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "parse error: distance matrix entries must be finite\n")


def test_transport_rejects_a_nearly_symmetric_rho(tmp_path, capsys):
    # rho(0,1) and rho(1,0) differ by 4e-6, within numpy's default relative
    # slack: J(delta_0, delta_1) would be 1.0 and J(delta_1, delta_0) 1.000004
    mu, nu = _one_by_two(tmp_path, [[0, 1.0], [1.000004, 0]])
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "parse error: distance matrix must be symmetric\n")


def test_transport_rejects_a_nan_table(tmp_path, capsys):
    # NaN passes the sign and diagonal checks, and no triangle check fails on it
    mu, nu = _one_by_two(tmp_path, [[0, 1], [1, 0]])
    cost = tmp_path / "c.json"
    cost.write_text('{"kind": "finite_matrix", "values": [[NaN, 1], [1, 0]]}')
    assert main(["transport", mu, nu, str(cost), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "parse error: finite cost matrix entries must be finite\n")
    nan = float("nan")  # json.dumps writes it as NaN
    mu, nu = _one_by_two(tmp_path, [[0, nan], [nan, 0]])
    cost = write(tmp_path / "c.json", {"kind": "metric_power", "p": 1})
    assert main(["transport", mu, nu, cost, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", "parse error: distance matrix entries must be finite\n")


def test_non_finite_cost_parameters_are_parse_errors(tmp_path, capsys):
    # json reads NaN and Infinity, which no comparison of p or of a declared
    # constant rejected: p = Infinity priced every pair of these atoms, all
    # less than 1 apart, at 0, so the transport printed 0; p = NaN gave the
    # analytic constants of some p, and a NaN B NaN constants
    mu = write(tmp_path / "mu.json", {**MEASURE_01, "atoms": [[0.0], [0.5]]})
    nu = write(tmp_path / "nu.json", {**MEASURE_01, "atoms": [[0.25], [0.75]]})
    nan, inf = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity
    cases = [(["transport", mu, nu], {"kind": "norm_power", "p": inf},
              "norm power p must be finite, not inf"),
             (["constants"], {"kind": "metric_power", "p": nan},
              "metric power p must be finite, not nan"),
             (["constants"], {"kind": "norm_power", "p": -inf},
              "norm power p must be finite, not -inf")]
    for key, bad in (("A", inf), ("B", nan), ("q", inf), ("q0", -inf)):
        declared = {"A": 0.0, "B": 2.0, "q": 6.0, "q0": 2.0, key: bad}
        cases.append((["constants"], {**COST_SQ, "declared_constants": declared},
                      f"declared {key} must be finite, not {bad}"))
    for argv, cost, message in cases:
        out = tmp_path / "out"
        assert main(argv + [write(tmp_path / "c.json", cost), "--out-dir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")


def test_non_finite_or_overflowing_lambdas_are_parse_errors(tmp_path, capsys):
    # a NaN or infinite lambda used to reach the LP as a cost and fail there
    # as "LP costs must be finite"; two lambdas of 1e308 overflowed their
    # sum, and the normalized weights failed as atom coordinates
    nan, inf = float("nan"), float("inf")
    for lams, message in [((1.0, nan), "inputs[1] lambda must be finite, not nan"),
                          ((inf, 1.0), "inputs[0] lambda must be finite, not inf"),
                          ((1e308, 1e308), "input weights overflow when summed, at inputs[1] "
                                           "lambda 1e+308")]:
        for constraint in ROUTE_CONSTRAINTS.values():
            problem = write(tmp_path / "p.json", {
                "inputs": [{"measure": m, "lambda": lam}
                           for m, lam in zip((MEASURE_01, MEASURE_12), lams)],
                "constraint": constraint, "cost": COST_SQ})
            assert main(["barycenter", problem, "--out-dir", str(tmp_path / "out")]) == 2
            assert capsys.readouterr() == ("", f"parse error: {message}\n")


def test_unbounded_ratio_is_numerical_error(tmp_path, capsys):
    # c(0,1) > 0 while the whole path through z=2 costs nothing
    cost = write(tmp_path / "c.json", {"kind": "finite_matrix", "values": [
        [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]})
    rc = main(["constants", cost, "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical error: c(0,1) > 0 but the triangle denominator through z=2 is 0")


def test_construction_failed_is_numerical_error(tmp_path, capsys, monkeypatch):
    def failing(cost):
        raise ConstructionFailed("relaxed inequality fails at eps=0.5", (0, 1, 2))

    monkeypatch.setattr(cli, "growth_constants", failing)
    cost = write(tmp_path / "c.json", COST_SQ)
    rc = main(["constants", cost, "--out-dir", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical error: ('relaxed inequality fails at eps=0.5'")


def test_transport_runs_under_the_benchmark_tracer(tmp_path):
    # perfbench/tracer.py patches names in the loaded modules; a name it
    # expects that is missing makes every traced benchmark pass die
    root = Path(__file__).resolve().parents[1]
    mu = write(tmp_path / "mu.json", MEASURE_01)
    nu = write(tmp_path / "nu.json", MEASURE_12)
    cost = write(tmp_path / "c.json", COST_SQ)
    script = (
        "import sys\n"
        "import mkbary.cli\n"
        f"sys.path.insert(0, {str(root / 'perfbench')!r})\n"
        "import tracer\n"
        "tracer.Tracer().install()\n"
        f"sys.exit(mkbary.cli.main(['transport', {mu!r}, {nu!r}, {cost!r}, "
        f"'--out-dir', {str(tmp_path)!r}]))\n"
    )
    # no bytecode: the test must leave perfbench/ as it found it
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_verify_small_convexity_passes(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", {"count": 10})
    rc = main(["verify", "convexity", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "convexity.csv").exists()
    assert "PASS" in capsys.readouterr().out


def test_verify_too_small_q_fails_with_witness(tmp_path, capsys):
    import csv

    cfg = write(tmp_path / "cfg.json", {"count": 10, "powers": [2.0], "q": 1.0})
    rc = main(["verify", "q-triangle", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 1
    with open(tmp_path / "q-triangle.csv") as fh:
        rows = list(csv.DictReader(fh))
    failed = [r for r in rows if r["passed"] == "0"]
    assert failed and all("mu[" in r["witness"] for r in failed)


def test_verify_criterion_suite(tmp_path, capsys):
    rc = main(["verify", "criterion", "--out-dir", str(tmp_path)])
    assert rc == 0
    header = (tmp_path / "criterion.csv").read_text().splitlines()[0]
    assert header == "check,value,observed,passed"


SMALL_LLN = {
    "population": {"generator": {"box": [[0.0, 0.0], [1.0, 1.0]], "count": 2,
                                 "max_atoms": 3, "seed": 1}},
    "constraint": {"kind": "grid", "shape": [5, 5], "box": [[0.0, 0.0], [1.0, 1.0]]},
    "n_grid": [2, 8],
    "seeds": [0, 1, 2],
    "cost": {"kind": "norm_power", "p": 2},
}


SMALL_PERTURB = {
    "population": {"generator": {"box": [[0.0, 0.0], [1.0, 1.0]], "count": 1,
                                 "max_atoms": 3, "seed": 2}},
    "constraint": {"kind": "grid", "shape": [5, 5], "box": [[0.0, 0.0], [1.0, 1.0]]},
    "deltas": [0.0, 0.05],
    "cost": {"kind": "norm_power", "p": 2},
}
SMALL_CONFIGS = {"convexity": {"count": 8}, "triangle": {"count": 8}, "q-triangle": {"count": 4},
                 "criterion": {"trunc_n": [1, 2, 3]}, "lln": SMALL_LLN,
                 "perturb": SMALL_PERTURB}


def test_verify_deterministic_outputs(tmp_path):
    assert set(SMALL_CONFIGS) == set(SUITES)
    for suite, config in SMALL_CONFIGS.items():
        cfg = write(tmp_path / f"{suite}.json", config)
        out1, out2 = tmp_path / suite / "a", tmp_path / suite / "b"
        assert main(["verify", suite, "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["verify", suite, "--config", cfg, "--out-dir", str(out2)]) == 0
        for name in (f"{suite}.csv", f"{suite}_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# per suite, a key it does not read (the other suites read each of them)
FOREIGN_KEYS = {"convexity": "deltas", "triangle": "t_grid", "q-triangle": "cost",
                "criterion": "count", "lln": "count", "perturb": "count"}


def _no_lp(monkeypatch):
    from mkbary import lp

    def no_lp(*args):
        raise AssertionError("an LP ran before the config was checked")

    monkeypatch.setattr(lp, "Model", no_lp)  # every LP, one-shot or kept, starts here


@pytest.mark.parametrize("suite", list(FOREIGN_KEYS))
def test_verify_rejects_a_key_the_suite_does_not_read(tmp_path, capsys, monkeypatch, suite):
    _no_lp(monkeypatch)
    key = FOREIGN_KEYS[suite]
    for config in ({key: 5}, {**SMALL_CONFIGS[suite], "bogus": "x"}):
        cfg = write(tmp_path / "cfg.json", config)
        assert main(["verify", suite, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {suite} reads no ") and err.count("\n") == 1
        assert repr(next(iter(set(config) - set(SMALL_CONFIGS[suite])))) in err
        assert not (tmp_path / f"{suite}.csv").exists()
        assert not (tmp_path / "manifest.json").exists()


def test_verify_lln_and_perturb_cli(tmp_path, capsys):
    cfg = write(tmp_path / "lln.json", SMALL_LLN)
    rc = main(["verify", "lln", "--config", cfg, "--jobs", "2", "--out-dir", str(tmp_path)])
    assert rc == 0
    lln_csv = (tmp_path / "lln.csv").read_text().splitlines()
    assert lln_csv[0] == "n,seed,j_to_population_barycenter,meta_j,passed"
    assert len(lln_csv) == 1 + 2 * 3  # header + |n_grid| * |seeds|

    perturb_cfg = write(tmp_path / "p.json", SMALL_PERTURB)
    rc = main(["verify", "perturb", "--config", perturb_cfg, "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "perturb.csv").exists()


def test_each_population_is_merged_once_where_it_enters(tmp_path, capsys, monkeypatch):
    # a population is merged by MetaDistribution.make, and the barycenter
    # problems built from its measures are not merged again: lln merges its
    # population alone (it used to merge 54 times, once more per barycenter),
    # perturb its population and the jittered one of each of its 4 deltas
    # (it used to merge 10 times)
    import mkbary.barycenter as barycenter
    import mkbary.consistency as consistency
    import mkbary.measures as measures

    real, calls = measures.merge_equal_measures, []

    def counted(pairs):
        calls.append(len(pairs))
        return real(pairs)

    for module in (barycenter, consistency, measures):
        monkeypatch.setattr(module, "merge_equal_measures", counted)
    for suite, want in (("lln", [4]), ("perturb", [1] * 5)):
        calls.clear()
        assert main(["verify", suite, "--out-dir", str(tmp_path)]) == 0
        assert calls == want, suite


def test_verify_perturb_judges_deltas_in_increasing_order(tmp_path, capsys):
    # the zero-delta and monotone checks used to read the deltas in config
    # order, so this list failed `monotone_meta` where the sorted one passes
    outputs = []
    for name, deltas in (("sorted", [0.0, 0.01, 0.05, 0.1]), ("unsorted", [0.1, 0.0, 0.05, 0.01])):
        cfg = write(tmp_path / f"{name}.json", {"deltas": deltas})
        out = tmp_path / name
        assert main(["verify", "perturb", "--config", cfg, "--out-dir", str(out)]) == 0
        assert capsys.readouterr().out.startswith("perturb: PASS")
        rows = (out / "perturb.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.01, 0.05, 0.1]
        outputs.append([(out / f).read_bytes() for f in ("perturb.csv", "perturb_summary.json")])
    assert outputs[0] == outputs[1]


def test_verify_lln_rejects_a_top_level_seed(tmp_path, capsys):
    # lln draws from ``seeds``; a ``seed`` it would ignore is a parse error in
    # the config and a usage error as ``--seed``
    cfg = write(tmp_path / "lln.json", SMALL_LLN)
    seeded = write(tmp_path / "seeded.json", {**SMALL_LLN, "seed": 3})
    for k, (argv, code, kind) in enumerate([(["--config", cfg, "--seed", "3"], 4, "usage"),
                                            (["--config", seeded], 2, "parse")]):
        out_dir = tmp_path / f"out-{k}"
        assert main(["verify", "lln", *argv, "--out-dir", str(out_dir)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"{kind} error: ") and "'seeds'" in err
        assert not out_dir.exists()


def test_verify_seed_flag_has_one_home(tmp_path, capsys, monkeypatch):
    _no_lp(monkeypatch)
    seeded = write(tmp_path / "seeded.json", {"seed": 5, "count": 2})
    for suite, argv, message in (
            ("convexity", ["--config", seeded, "--seed", "9"],
             f"--seed 9: {seeded} already sets seed 5; give the seed in one place"),
            ("lln", ["--seed", "3"], "--seed 3: lln reads no 'seed'; its keys are 'constraint', "
                                     "'cost', 'n_grid', 'population', 'seeds'")):
        out = tmp_path / "out"
        assert main(["verify", suite, *argv, "--out-dir", str(out)]) == 4
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
        assert not out.exists()
    # a seed in one place is recorded in the manifest
    monkeypatch.undo()
    unseeded = write(tmp_path / "unseeded.json", {"count": 2})
    for name, argv in (("file", ["--config", seeded]),
                       ("flag", ["--config", unseeded, "--seed", "5"])):
        out = tmp_path / name
        assert main(["verify", "convexity", *argv, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {"count": 2, "seed": 5}


@pytest.mark.parametrize("suite, config, message", [
    ("lln", {"n_grid": [2.5, 8]},
     "lln field 'n_grid' must be a flat array of integers, not one holding 2.5"),
    ("lln", {"seeds": [1.5]},
     "lln field 'seeds' must be a flat array of integers, not one holding 1.5"),
    ("lln", {"seeds": [0, True]},
     "lln field 'seeds' must be a flat array of integers, not one holding True"),
    ("lln", {"n_grid": [[4], 8]},
     "lln field 'n_grid' must be a flat array of integers, not one holding [4]"),
    ("lln", {"constraint": {**SMALL_LLN["constraint"], "shape": [5.7, 5]}},
     "constraint field 'shape' must be a flat array of integers, not one holding 5.7"),
    ("lln", {"constraint": {**SMALL_LLN["constraint"], "shape": [5, 0]}},
     "constraint field 'shape' must be at least 1, not [5, 0]"),
    ("lln", {"n_grid": [0, 8]}, "lln field 'n_grid' must be at least 1, not [0, 8]"),
    ("criterion", {"escape_n": [0, 2, 3]},
     "criterion field 'escape_n' must be at least 1, not [0, 2, 3]"),
    ("convexity", {"count": -3}, "convexity field 'count' must be at least 1, not -3"),
    ("triangle", {"count": 0}, "triangle field 'count' must be at least 1, not 0"),
    ("q-triangle", {"max_atoms": 0}, "q-triangle field 'max_atoms' must be at least 1, not 0"),
    ("q-triangle", {"q": 0}, "q-triangle field 'q' must be at least 1, not 0"),
    ("q-triangle", {"q": 0.5}, "q-triangle field 'q' must be at least 1, not 0.5"),
    ("lln", {"population": {"generator": {**SMALL_LLN["population"]["generator"], "count": 0}}},
     "generator field 'count' must be at least 1, not 0"),
    ("perturb", {"population": {"generator": {"box": [[0, 0], [1, 1]], "max_atoms": 0,
                                              "count": 1}}},
     "generator field 'max_atoms' must be at least 1, not 0"),
    *[(suite, {key: []}, f"{suite} field {key!r} must not be empty")
      for suite, key in (("lln", "seeds"), ("lln", "n_grid"), ("perturb", "deltas"),
                         ("convexity", "t_grid"), ("q-triangle", "powers"),
                         ("criterion", "escape_n"), ("criterion", "trunc_n"))],
    ("convexity", {"seed": -1}, "convexity field 'seed' must be at least 0, not -1"),
    # criterion draws from seed + 7, so -7..-1 used to run
    ("criterion", {"seed": -3}, "criterion field 'seed' must be at least 0, not -3"),
    ("lln", {"seeds": [-1, 0]}, "lln field 'seeds' must be at least 0, not [-1, 0]"),
    ("lln", {"population": {"generator": {**SMALL_LLN["population"]["generator"], "seed": -1}}},
     "generator field 'seed' must be at least 0, not -1"),
    # a norm power under 1 is no cost; it used to fail only after the p = 2 batch ran
    ("q-triangle", {"count": 50, "powers": [2.0, 0.5]},
     "q-triangle field 'powers' must be at least 1, not [2.0, 0.5]"),
    ("perturb", {"deltas": [0.05, -0.01]},
     "perturb field 'deltas' must be at least 0, not [0.05, -0.01]"),
])
def test_verify_settings_that_check_nothing_are_parse_errors(tmp_path, capsys, monkeypatch,
                                                             suite, config, message):
    _no_lp(monkeypatch)
    base = SMALL_LLN if suite == "lln" else {}
    cfg = write(tmp_path / "cfg.json", {**base, **config})
    out = tmp_path / "out"
    assert main(["verify", suite, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n")
    assert not out.exists()


def test_verify_integer_arrays_take_integral_floats(tmp_path, capsys):
    runs = {}
    for name, n_grid in (("ints", [2, 8]), ("floats", [2.0, 8.0])):
        cfg = write(tmp_path / f"{name}.json", {**SMALL_LLN, "n_grid": n_grid})
        assert main(["verify", "lln", "--config", cfg, "--out-dir", str(tmp_path / name)]) == 0
        runs[name] = (tmp_path / name / "lln.csv").read_bytes()
    assert runs["floats"] == runs["ints"]


FINITE_3 = {"kind": "finite", "n": 3, "rho": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}


@pytest.mark.parametrize("candidates, atoms", [
    ([0, 1, 7], [0, 1]),     # past the last point
    ([0, 1, -1], [0, 1]),    # not read from the end
    ([0, 1.5], [0, 1]),      # not truncated
    ([0, 1, 2], [0.7, 2.2]),  # input atoms, not truncated
])
def test_finite_indices_that_are_not_points_are_parse_errors(tmp_path, capsys, monkeypatch,
                                                             candidates, atoms):
    from mkbary import lp

    def no_lp(c, A, rhs):
        raise AssertionError("an LP ran before the indices were checked")

    monkeypatch.setattr(lp, "Model", no_lp)  # every LP, one-shot or kept, starts here
    measure = {"space": FINITE_3, "atoms": atoms, "weights": [0.5, 0.5]}
    problem = {"inputs": [{"measure": measure, "lambda": 1.0}],
               "constraint": {"kind": "simplex_over", "atoms": candidates},
               "cost": {"kind": "metric_power", "p": 2}}
    rc = main(["barycenter", write(tmp_path / "p.json", problem), "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and err.startswith("parse error: ")
    assert "is not an index of the finite space of size 3" in err
    assert not (tmp_path / "barycenter.json").exists()




GENERATOR = SMALL_LLN["population"]["generator"]
# population measures in the plane of the SMALL_LLN and SMALL_PERTURB grids
POINT_A = {"space": {"kind": "euclidean", "dim": 2}, "atoms": [[0.2, 0.3]], "weights": [1.0]}
POINT_B = {**POINT_A, "atoms": [[0.7, 0.6]]}
PROBLEM = {"inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
           "constraint": {"kind": "free", "k": 1}, "cost": COST_SQ}

# (the command that reads the file, the file, the parse error)
BROKEN_RULES = [
    # a missing key
    ("lln", {**SMALL_LLN, "population": {"generator": {"box": GENERATOR["box"]}}},
     "generator field 'count' is missing"),
    ("constants", {**COST_SQ, "declared_constants": {"A": 0.0}},
     "declared_constants field 'B' is missing"),
    ("transport", {"space": MEASURE_01["space"], "atoms": [[0.0]]},
     "measure field 'weights' is missing"),
    ("barycenter", {"inputs": PROBLEM["inputs"], "constraint": PROBLEM["constraint"]},
     "problem field 'cost' is missing"),
    # an empty array
    ("transport", {**MEASURE_01, "atoms": [], "weights": []},
     "measure field 'atoms' must not be empty"),
    ("transport", {**MEASURE_01, "weights": []}, "measure field 'weights' must not be empty"),
    ("barycenter", {**PROBLEM, "inputs": []}, "problem field 'inputs' must not be empty"),
    ("barycenter", {**PROBLEM, "constraint": {"kind": "grid", "box": [[0.0], [1.0]], "shape": []}},
     "constraint field 'shape' must not be empty"),
    ("lln", {**SMALL_LLN, "population": {"measures": [], "probs": []}},
     "population field 'measures' must not be empty"),
    # an unknown key, one per object kind
    ("lln", {**SMALL_LLN, "population": {"generator": GENERATOR, "probs": [1.0]}},
     "population reads no 'probs'; its keys are 'generator'"),
    ("lln", {**SMALL_LLN, "population": {"measures": [MEASURE_01], "probs": [1.0], "count": 1}},
     "population reads no 'count'; its keys are 'measures', 'probs'"),
    ("lln", {**SMALL_LLN, "population": {"generator": {**GENERATOR, "max_atom": 1}}},
     "generator reads no 'max_atom'; its keys are 'box', 'count', 'max_atoms', 'seed'"),
    ("lln", {**SMALL_LLN, "constraint": {**SMALL_LLN["constraint"], "atoms": [[0.5, 0.5]]}},
     "grid constraint reads no 'atoms'; its keys are 'box', 'kind', 'shape'"),
    ("barycenter", {**PROBLEM, "constraint": {"kind": "simplex_over", "atoms": [[0.0]], "k": 1}},
     "simplex_over constraint reads no 'k'; its keys are 'atoms', 'kind'"),
    ("barycenter", {**PROBLEM, "constraint": {"kind": "free", "k": 1, "atoms": [[0.0]]}},
     "free constraint reads no 'atoms'; its keys are 'k', 'kind'"),
    ("barycenter", {**PROBLEM, "constraint": {"kind": "quantile_1d", "k": 1}},
     "quantile_1d constraint reads no 'k'; its keys are 'kind'"),
    ("barycenter", {**PROBLEM, "seed": 3},
     "problem reads no 'seed'; its keys are 'constraint', 'cost', 'inputs'"),
    ("barycenter", {**PROBLEM, "inputs": [{"measure": MEASURE_01, "lambda": 1.0, "weight": 1.0}]},
     "input reads no 'weight'; its keys are 'lambda', 'measure'"),
    ("transport", {**MEASURE_01, "weight": [1.0]},
     "measure reads no 'weight'; its keys are 'atoms', 'space', 'weights'"),
    ("transport", {**MEASURE_01, "space": {"kind": "euclidean", "dim": 1, "n": 1}},
     "euclidean space reads no 'n'; its keys are 'dim', 'kind'"),
    ("transport", {"space": {**FINITE_3, "dim": 3}, "atoms": [0, 1], "weights": [0.5, 0.5]},
     "finite space reads no 'dim'; its keys are 'kind', 'n', 'rho'"),
    ("constants", {**COST_SQ, "declared": {"B": 7}},
     "norm_power cost reads no 'declared'; its keys are 'declared_constants', 'kind', 'p'"),
    ("constants", {"kind": "metric_power", "p": 1, "q": 2},
     "metric_power cost reads no 'q'; its keys are 'declared_constants', 'kind', 'p'"),
    ("constants", {"kind": "finite_matrix", "values": [[0.0, 1.0], [1.0, 0.0]], "p": 2},
     "finite_matrix cost reads no 'p'; its keys are 'declared_constants', 'kind', 'values'"),
    ("constants", {**COST_SQ, "declared_constants": {"B": 2.0, "b": 1.0}},
     "declared_constants reads no 'b'; its keys are 'A', 'B', 'q', 'q0'"),
    # a repeated lln entry, which would write two rows for one (n, seed)
    ("lln", {**SMALL_LLN, "n_grid": [2, 8, 2]},
     "lln field 'n_grid' repeats [2]; each entry must be distinct"),
    ("lln", {**SMALL_LLN, "seeds": [0, 1, 2, 1, 0]},
     "lln field 'seeds' repeats [0, 1]; each entry must be distinct"),
    # a repeated delta, which would write two rows for one delta
    ("perturb", {**SMALL_PERTURB, "deltas": [0.05, 0.0, 0.05]},
     "perturb field 'deltas' repeats [0.05]; each entry must be distinct"),
    # population probs that are not one finite probability per measure: a
    # short list used to drop the measures past its end, and a long one its
    # own tail; a NaN passed every check and failed later as an input lambda
    ("lln", {**SMALL_LLN, "population": {"measures": [POINT_A, POINT_B], "probs": [1.0]}},
     "measures and probs differ in count: 2 measures, 1 probs"),
    ("perturb", {**SMALL_PERTURB, "population": {"measures": [POINT_A], "probs": [0.6, 0.4]}},
     "measures and probs differ in count: 1 measures, 2 probs"),
    ("lln", {**SMALL_LLN, "population": {"measures": [POINT_A, POINT_B],
                                         "probs": [float("nan"), 1.0]}},
     "probs[0] must be finite, not nan"),
    ("perturb", {**SMALL_PERTURB, "population": {"measures": [POINT_A, POINT_B],
                                                 "probs": [0.5, float("inf")]}},
     "probs[1] must be finite, not inf"),
    ("lln", {**SMALL_LLN, "population": {"measures": [POINT_A, POINT_B], "probs": [0.5, 0.6]}},
     "probabilities sum to 1.1"),
    ("perturb", {**SMALL_PERTURB, "population": {"measures": [POINT_A], "probs": [[1.0]]}},
     "probs must be a flat array of numbers"),
]


@pytest.mark.parametrize("command, obj, message", BROKEN_RULES)
def test_input_files_that_break_a_rule_are_parse_errors(tmp_path, capsys, monkeypatch,
                                                        command, obj, message):
    _no_lp(monkeypatch)
    bad = write(tmp_path / "bad.json", obj)
    cost = write(tmp_path / "c.json", COST_SQ)
    argv = {"transport": ["transport", bad, bad, cost],
            "barycenter": ["barycenter", bad],
            "constants": ["constants", bad]}.get(command, ["verify", command, "--config", bad])
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", f"parse error: {message}\n")
    assert not out.exists()


def test_a_negative_seed_flag_is_a_parse_error(tmp_path, capsys, monkeypatch):
    _no_lp(monkeypatch)
    out = tmp_path / "out"
    assert main(["verify", "triangle", "--seed", "-2", "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", "parse error: triangle field 'seed' must be at least 0, "
                                       "not -2\n")
    assert not out.exists()
    free = write(tmp_path / "free.json", {"inputs": [{"measure": MEASURE_01, "lambda": 1.0}],
                                          "cost": COST_SQ, "constraint": ROUTE_CONSTRAINTS["free"]})
    assert main(["barycenter", free, "--seed", "-1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr() == ("", "parse error: --seed must be at least 0, not -1\n")
    assert not out.exists()


def test_an_overflowing_quartic_cost_is_one_parse_error(tmp_path):
    # (1e100)^4 overflows: the quantile cells' ternary search runs on past
    # it without a numpy warning, and a cost table names the cost and a pair
    line = {"kind": "euclidean", "dim": 1}
    inputs = [{"measure": {"space": line, "atoms": atoms, "weights": [0.5, 0.5]}, "lambda": 0.5}
              for atoms in ([[0.0], [1e100]], [[1.0], [2e100]])]
    root = Path(__file__).resolve().parents[1]
    for constraint in ({"kind": "quantile_1d"}, {"kind": "free", "k": 3}):
        pf = write(tmp_path / "problem.json", {"inputs": inputs, "constraint": constraint,
                                               "cost": {"kind": "norm_power", "p": 4}})
        proc = subprocess.run([sys.executable, "-m", "mkbary", "barycenter", pf,
                               "--out-dir", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": str(root / "src")})
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("parse error: norm_power cost with p = 4 is inf ")
        assert proc.stderr.count("\n") == 1 and "RuntimeWarning" not in proc.stderr


def test_verify_lln_summary_counts_its_holes(tmp_path, capsys, monkeypatch):
    import mkbary.consistency as consistency

    real, calls = consistency.barycenter_fixed_support, []

    def fails_once(problem, **kwargs):
        calls.append(problem)
        if len(calls) == 2:  # the first empirical barycenter, after the population's
            raise NumericalFailure("forced")
        return real(problem, **kwargs)

    cfg = write(tmp_path / "lln.json", SMALL_LLN)
    assert main(["verify", "lln", "--config", cfg, "--out-dir", str(tmp_path / "full")]) == 0
    summary = json.loads((tmp_path / "full" / "lln_summary.json").read_text())
    assert summary["summary"]["holes"] == []

    monkeypatch.setattr(consistency, "barycenter_fixed_support", fails_once)
    assert main(["verify", "lln", "--config", cfg, "--out-dir", str(tmp_path / "hole")]) == 1
    summary = json.loads((tmp_path / "hole" / "lln_summary.json").read_text())
    assert summary["passed"] is False
    assert summary["summary"]["holes"] == [
        {"n": 2, "seed": 0, "message": "NumericalFailure('forced')"}]
    full = (tmp_path / "full" / "lln.csv").read_text().splitlines()
    # the CSV keeps its columns and loses only the hole's row
    assert (tmp_path / "hole" / "lln.csv").read_text().splitlines() == [full[0]] + [
        row for row in full[1:] if not row.startswith("2,0,")]


@pytest.mark.parametrize("failing", ["n16", "every"])
def test_verify_lln_with_no_record_for_an_n_writes_strict_json(tmp_path, capsys, monkeypatch,
                                                                recwarn, failing):
    import mkbary.consistency as consistency

    real = consistency.barycenter_fixed_support

    def fails(problem, **kwargs):
        n = sys._getframe(1).f_locals.get("n")  # the draw's n; None for the population's
        if n == 16 or (failing == "every" and n is not None):
            raise NumericalFailure("forced")
        return real(problem, **kwargs)

    def strict(name):
        raise AssertionError(f"{name} is not JSON")

    monkeypatch.setattr(consistency, "barycenter_fixed_support", fails)
    cfg = write(tmp_path / "lln.json", {**SMALL_LLN, "n_grid": [4, 16]})
    assert main(["verify", "lln", "--config", cfg, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("lln: FAIL\n", "")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    summary = json.loads((tmp_path / "lln_summary.json").read_text(), parse_constant=strict)
    kept = [] if failing == "every" else [4]
    assert {(h["n"], h["seed"]) for h in summary["summary"]["holes"]} == {
        (n, seed) for n in {4, 16} - set(kept) for seed in SMALL_LLN["seeds"]}
    assert sorted(summary["summary"]["median_j"]) == [str(n) for n in kept]
    assert (summary["summary"]["decay_ratio"] is None) == (not kept)
    assert summary["passed"] is False and summary["summary"]["decay_ok"] is False
