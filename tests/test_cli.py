import numpy as np
import pytest

from netl1 import bench, cli, solvers
from netl1.cli import ALGOS, main
from netl1.graphs import generate_network, greedy_coloring, load_network
from netl1.problems import load_instance, save_instance


def test_gen_instance_and_oracle_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert main([
        "gen-instance", "--m", "16", "--n", "48", "--P", "4", "--k", "2",
        "--seed", "1", "--out", str(inst),
    ]) == 0
    problem = load_instance(inst)
    assert problem.A.shape == (16, 48) and problem.x_ref is None
    assert main(["oracle", "--instance", str(inst), "--tol", "1e-9"]) == 0
    problem = load_instance(inst)
    assert problem.x_ref is not None
    assert np.abs(problem.A @ problem.x_ref - problem.b).max() <= 1e-8


def test_gen_network_and_run_exit_codes(tmp_path):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    trace = tmp_path / "trace.csv"
    main(["gen-instance", "--m", "16", "--n", "48", "--P", "4", "--k", "2",
          "--seed", "2", "--out", str(inst)])
    assert main(["gen-network", "--model", "lattice", "--P", "4", "--out", str(net)]) == 0
    # convergence -> exit 0
    code = main(["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
                 "--targets", "1e-2,1e-4", "--max-steps", "3000",
                 "--trace-out", str(trace)])
    assert code == 0
    header = trace.read_text().splitlines()[0]
    assert header == "step,max_rel_err,node0_rel_err,consensus_residual,objective"
    # budget exhaustion -> exit 2
    code = main(["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
                 "--targets", "1e-9", "--max-steps", "5"])
    assert code == 2
    # input error -> exit 1
    code = main(["run", "--algo", "dadmm", "--instance", str(inst),
                 "--network", str(tmp_path / "missing.txt")])
    assert code == 1


@pytest.mark.parametrize("model, param, params", [
    ("erdos_renyi", "0.5", {"p": 0.5}),
    ("watts_strogatz", "4,0.6", {"n": 4, "p": 0.6}),
    ("geometric", "0.75", {"d": 0.75}),
])
def test_gen_network_param(tmp_path, capsys, model, param, params):
    net = tmp_path / "net.txt"
    assert main(["gen-network", "--model", model, "--P", "10", "--seed", "3",
                 "--param", param, "--out", str(net)]) == 0
    g, coloring = load_network(net)
    assert g == generate_network(model, 10, 3, **params)
    assert coloring == greedy_coloring(g)
    assert capsys.readouterr().out.startswith(f"wrote {model} network P=10 E={g.n_edges} ")


@pytest.mark.parametrize("model, param", [
    ("watts_strogatz", "4"), ("erdos_renyi", ""), ("watts_strogatz", "0.5,0.6"),
    ("watts_strogatz", "4,0.6,1"), ("geometric", "near"), ("erdos_renyi", "0.5,0.6"),
    ("lattice", "0.5"),
])
def test_gen_network_bad_param_is_an_error(tmp_path, capsys, model, param):
    # the message names the option and the form the model takes
    form = {"erdos_renyi": "p", "watts_strogatz": "n,p", "geometric": "d", "lattice": ""}[model]
    assert main(["gen-network", "--model", model, "--P", "10", "--param", param,
                 "--out", str(tmp_path / "net.txt")]) == 1
    assert capsys.readouterr().err == (
        f"error: --param: {model} takes '{form}', not {param!r}\n")


#: The --algo names README documents, and the kinds they run on a row partition.
ALGO_KINDS = {"dadmm": "dadmm_row", "dlasso": "dlasso", "subgradient": "subgradient",
              "mm-ngs": "mm_ngs", "mm-dqa": "mm_dqa", "dn": "dn"}


def test_algo_names_are_documented():
    assert sorted(ALGOS) == sorted(ALGO_KINDS)


@pytest.mark.parametrize("algo, kind", sorted(ALGO_KINDS.items()))
def test_every_algo_name_runs(tmp_path, capsys, algo, kind):
    inst, net = _instance_and_network(tmp_path, 14)
    capsys.readouterr()
    assert main(["run", "--algo", algo, "--instance", str(inst), "--network", str(net),
                 "--targets", "1e-9", "--max-steps", "2"]) == 2
    assert capsys.readouterr().out.startswith(f"{kind} rho=")


def test_capped_node_solves_are_reported(tmp_path, capsys, monkeypatch):
    # one evaluation per node solve is too few: run and sweep-rho print the
    # flagged_rounds and keep their exit codes; an unflagged run prints none
    inst, net = _instance_and_network(tmp_path, 15)
    run = ["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
           "--targets", "1e-2", "--max-steps", "3000"]
    sweep = ["sweep-rho", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
             "--grid", "1", "--targets", "1e-2"]
    capsys.readouterr()
    assert main(run) == 0 and main(sweep) == 0
    assert "flagged_rounds" not in capsys.readouterr().out
    monkeypatch.setattr(solvers, "MAX_ITER", 1)
    assert main(run[:-2] + ["--max-steps", "4"]) == 2
    assert main(sweep + ["--max-steps", "4"]) == 2
    run_line, sweep_line, _ = capsys.readouterr().out.splitlines()
    suffix = "; flagged_rounds = 4 (steps with a node solve at its cap)"
    assert run_line.endswith(suffix) and sweep_line.endswith(suffix)


def test_column_run_and_bad_algo(tmp_path):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    main(["gen-instance", "--m", "16", "--n", "48", "--P", "4", "--k", "2",
          "--seed", "3", "--partition", "column", "--out", str(inst)])
    main(["gen-network", "--model", "lattice", "--P", "4", "--out", str(net)])
    code = main(["run", "--algo", "dadmm", "--partition", "column", "--rho", "0.5",
                 "--instance", str(inst), "--network", str(net),
                 "--targets", "1e-1", "--max-steps", "2000"])
    assert code == 0
    # row-only baseline on a column partition is an input error
    code = main(["run", "--algo", "dlasso", "--partition", "column",
                 "--instance", str(inst), "--network", str(net)])
    assert code == 1


def test_sweep_rho_cli(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    main(["gen-instance", "--m", "16", "--n", "48", "--P", "4", "--k", "2",
          "--seed", "4", "--out", str(inst)])
    main(["gen-network", "--model", "lattice", "--P", "4", "--out", str(net)])
    code = main(["sweep-rho", "--algo", "dadmm", "--instance", str(inst),
                 "--network", str(net), "--grid", "1e-1,1",
                 "--targets", "1e-2,1e-4", "--max-steps", "2000"])
    assert code == 0
    assert "best rho" in capsys.readouterr().out


def test_sweep_rho_cli_tells_capped_from_unreached(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    main(["gen-instance", "--m", "16", "--n", "48", "--P", "4", "--k", "2",
          "--seed", "4", "--out", str(inst)])
    main(["gen-network", "--model", "lattice", "--P", "4", "--out", str(net)])
    sweep = ["sweep-rho", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
             "--targets", "1e-2,1e-4"]
    capsys.readouterr()
    assert main(sweep + ["--max-steps", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # rho=1 reaches 1e-4 in 14 steps; 0.1 ran before it with the full budget,
    # and 10, above the best weight, needs one step fewer to win
    assert lines == [
        "  rho=0.001: stopped at the sweep's cap of 14 steps",
        "  rho=0.01: stopped at the sweep's cap of 18 steps",
        "  rho=0.1: steps to 0.0001 = 18",
        "  rho=1: steps to 0.0001 = 14",
        "  rho=10: stopped at the sweep's cap of 13 steps",
        "best rho = 1",
    ]
    assert main(sweep + ["--max-steps", "3"]) == 2
    out = capsys.readouterr().out
    assert out.count("steps to 0.0001 = not reached") == 5 and "cap" not in out


@pytest.mark.parametrize("grid", ["0,1", "-1,1", "nan,1", "inf,1"])
def test_bad_rho_grid_value_is_an_input_error(tmp_path, capsys, grid):
    # the subgradient accepts rho = 0 as a run's weight, the sweep does not
    inst, net = _instance_and_network(tmp_path, 13)
    capsys.readouterr()
    assert main(["sweep-rho", "--algo", "subgradient", "--instance", str(inst),
                 "--network", str(net), f"--grid={grid}"]) == 1
    assert capsys.readouterr().err.startswith("error: rho grid values must be positive")


def test_scale_cli(tmp_path, capsys):
    out = tmp_path / "scale.csv"
    code = main(["scale", "--m", "32", "--n", "128", "--k", "4",
                 "--p-values", "2,4", "--target", "1e-2",
                 "--max-steps", "2000", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("P,dadmm_row,dlasso")


def test_run_reads_network_files_as_written(tmp_path):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    main(["gen-instance", "--m", "8", "--n", "24", "--P", "2", "--k", "1",
          "--seed", "5", "--out", str(inst)])
    run = ["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
           "--targets", "1e-2", "--max-steps", "3000"]
    # a gap in the color numbers is two classes, not an empty middle one
    net.write_text("2 1\n0 1\ncolors 0 2\n")
    assert main(run) == 0
    # an edge line that is not two integers is an input error
    net.write_text("2 1\n0\n")
    assert main(run) == 1


def test_empty_rho_grid_is_an_input_error(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    main(["gen-instance", "--m", "8", "--n", "24", "--P", "2", "--k", "1",
          "--seed", "6", "--out", str(inst)])
    main(["gen-network", "--model", "lattice", "--P", "2", "--out", str(net)])
    code = main(["sweep-rho", "--algo", "dadmm", "--instance", str(inst),
                 "--network", str(net), "--grid", ""])
    assert code == 1
    assert "rho grid must be nonempty" in capsys.readouterr().err


def test_scale_without_network_sizes_is_an_input_error(capsys):
    assert main(["scale", "--m", "8", "--n", "24", "--k", "1", "--p-values", ""]) == 1
    assert "at least one network size" in capsys.readouterr().err


def _instance_and_network(tmp_path, seed):
    inst = tmp_path / "inst.txt"
    net = tmp_path / "net.txt"
    main(["gen-instance", "--m", "8", "--n", "24", "--P", "2", "--k", "1",
          "--seed", str(seed), "--out", str(inst)])
    main(["gen-network", "--model", "lattice", "--P", "2", "--out", str(net)])
    return inst, net


@pytest.mark.parametrize("command, option, value", [
    ("run", "--targets", "1e-2,x"),
    ("sweep-rho", "--grid", "1,x"),
    ("scale", "--p-values", "2,x"),
    ("scale", "--p-values", "2,2.5"),
])
def test_unreadable_list_entry_names_its_option(tmp_path, capsys, monkeypatch, command, option,
                                                value):
    # a bare int()/float() error used to name neither the option nor the list,
    # and came after the oracle had solved an instance without a reference
    inst, net = _instance_and_network(tmp_path, 14)
    capsys.readouterr()
    monkeypatch.setattr(bench, "solve_bp_centralized", None)
    run_args = [] if command == "scale" else ["--algo", "dadmm", "--instance", str(inst),
                                              "--network", str(net)]
    assert main([command, *run_args, f"{option}={value}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and repr(value.split(",")[1]) in err


def test_nonpositive_oracle_tol_is_an_input_error(tmp_path, capsys):
    inst, net = _instance_and_network(tmp_path, 7)
    assert main(["oracle", "--instance", str(inst), "--tol", "-1"]) == 1
    assert main(["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
                 "--oracle-tol", "0"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: oracle tolerance must be positive") == 2


def test_rank_deficient_instance_is_an_error(tmp_path, capsys):
    inst, net = _instance_and_network(tmp_path, 8)
    problem = load_instance(inst)
    problem.A[5] = problem.A[4]  # node 1's block loses a rank
    save_instance(inst, problem)
    assert main(["oracle", "--instance", str(inst)]) == 1
    # with a reference given, the node block is rejected instead
    problem.x_ref = np.ones(problem.n)
    save_instance(inst, problem)
    assert main(["run", "--algo", "dadmm", "--instance", str(inst),
                 "--network", str(net)]) == 1
    assert capsys.readouterr().err.count("does not have full row rank") == 2


def test_oracle_budget_exhaustion_is_an_error(tmp_path, capsys, monkeypatch):
    inst, _ = _instance_and_network(tmp_path, 9)
    monkeypatch.setattr(bench, "ORACLE_MAX_ITER", 3)
    assert main(["oracle", "--instance", str(inst)]) == 1
    assert "error: centralized solver missed" in capsys.readouterr().err


def test_nan_targets_are_an_input_error(tmp_path, capsys):
    inst, net = _instance_and_network(tmp_path, 10)
    assert main(["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
                 "--targets", "nan"]) == 1
    assert "targets must be positive and finite" in capsys.readouterr().err


def test_nan_delta_is_an_input_error(tmp_path, capsys):
    inst, net = _instance_and_network(tmp_path, 11)
    assert main(["run", "--algo", "dadmm", "--partition", "column", "--instance", str(inst),
                 "--network", str(net), "--delta", "nan"]) == 1
    assert "rho and delta must be finite" in capsys.readouterr().err


def test_nan_rho_is_an_input_error(tmp_path, capsys):
    inst, net = _instance_and_network(tmp_path, 12)
    assert main(["run", "--algo", "dadmm", "--instance", str(inst), "--network", str(net),
                 "--rho", "nan"]) == 1
    assert "rho and delta must be finite" in capsys.readouterr().err
