import json
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sandlab import load_graph, solve_potential
from sandlab.cli import main


@pytest.fixture(scope="module")
def grid2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "grid2.json"
    assert main(["gen", "grid", "--n", "2", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def line4_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "line4.json"
    assert main(["gen", "line", "--n", "4", "-o", str(path)]) == 0
    return str(path)


# -- gen --------------------------------------------------------------------


def test_gen_grid(tmp_path, capsys):
    out = tmp_path / "g8.json"
    assert main(["gen", "grid", "--n", "8", "-o", str(out)]) == 0
    assert capsys.readouterr().out.strip() == (
        f"wrote {out}: 64 ordinary vertices, sink degree 32"
    )
    g = load_graph(out)
    assert g.n_ordinary == 64


def test_gen_strip_needs_k(tmp_path):
    out = tmp_path / "s.json"
    assert main(["gen", "strip", "--n", "6", "-o", str(out)]) == 2
    assert main(["gen", "strip", "--n", "6", "--k", "3", "-o", str(out)]) == 0
    assert load_graph(out).n_ordinary == 18


def test_gen_rejects_unknown_family(tmp_path):
    assert main(["gen", "torus", "--n", "4", "-o", str(tmp_path / "t.json")]) == 1


# -- stabilize and verify ---------------------------------------------------


def test_stabilize_point_drop(grid2_path, tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(["stabilize", "--graph", grid2_path,
                 "--site", "3", "--count", "30", "-o", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "topplings=13 absorbed=26" in stdout

    payload = json.loads(out.read_text())
    assert set(payload) == {"command", "seed", "results"}
    assert payload["results"]["stable"] == [0, 1, 1, 2]
    assert "wall_time" not in out.read_text()


def test_stabilize_artifact_is_byte_stable(grid2_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["stabilize", "--graph", grid2_path, "--uniform", "6",
            "--policy", "random", "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_stabilize_needs_a_placement(grid2_path):
    assert main(["stabilize", "--graph", grid2_path]) == 2
    assert main(["stabilize", "--graph", grid2_path, "--site", "0"]) == 2


def test_verify_passes(grid2_path, capsys):
    assert main(["verify", "--graph", grid2_path, "--seed", "5"]) == 0
    assert capsys.readouterr().out.strip() == "identity+conservation: PASS"
    assert main(["verify", "--graph", grid2_path,
                 "--site", "1,1", "--count", "100"]) == 0


def test_verify_site_needs_count(grid2_path):
    assert main(["verify", "--graph", grid2_path, "--site", "0"]) == 2


# -- tcl --------------------------------------------------------------------


def test_tcl_single_site(grid2_path, capsys):
    assert main(["tcl", "single-site", "--graph", grid2_path,
                 "--site", "1,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "30"


def test_tcl_exact_with_artifact(line4_path, tmp_path, capsys):
    out = tmp_path / "tcl.json"
    assert main(["tcl", "exact", "--graph", line4_path, "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "19"
    payload = json.loads(out.read_text())
    assert payload["results"]["value"] == 19
    assert len(payload["results"]["witness"]) == 19


def test_tcl_exact_respects_state_limit(line4_path, monkeypatch):
    monkeypatch.setenv("SANDLAB_STATE_LIMIT", "4")
    assert main(["tcl", "exact", "--graph", line4_path]) == 3


def test_state_limit_must_be_integer(line4_path, monkeypatch):
    monkeypatch.setenv("SANDLAB_STATE_LIMIT", "many")
    assert main(["tcl", "exact", "--graph", line4_path]) == 2


# -- potentials -------------------------------------------------------------


def test_potentials_csv(grid2_path, tmp_path):
    out = tmp_path / "pot.csv"
    assert main(["potentials", "--graph", grid2_path,
                 "--pole", "0,0", "-o", str(out)]) == 0
    text = out.read_text()
    assert "np." not in text
    lines = text.splitlines()
    assert lines[0] == "vertex,value"
    g = load_graph(grid2_path)
    fld = solve_potential(g, g.vertex_at(0, 0))
    for line in lines[1:]:
        v, val = line.split(",")
        assert float(val) == pytest.approx(fld.values[int(v)], abs=1e-15)


def test_potentials_csv_is_direct_lu_solve(tmp_path):
    path, out = tmp_path / "g8.json", tmp_path / "pot.csv"
    assert main(["gen", "grid", "--n", "8", "-o", str(path)]) == 0
    assert main(["potentials", "--graph", str(path),
                 "--pole", "3,4", "-o", str(out)]) == 0
    g = load_graph(path)
    w = g.vertex_at(3, 4)
    rhs = np.zeros(g.n_ordinary)
    rhs[w] = 1.0
    x = spla.splu(sp.csc_matrix(g.laplacian().astype(float))).solve(rhs)
    values = x / x[w]
    want = "vertex,value\n" + "".join(
        f"{v},{float(values[v])!r}\n" for v in range(g.n_ordinary)
    )
    assert out.read_bytes() == want.encode()


# -- estimate ---------------------------------------------------------------


def test_estimate_stdout_csv(capsys):
    code = main(["estimate", "mv", "--family", "grid", "--sizes", "8",
                 "--samples", "5", "--seed", "0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "family,n,seed,property,sample_id,v,r,R,value"
    assert any(row.split(",")[3] == "mv" for row in lines[1:])


def test_estimate_artifact_is_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["estimate", "alpha", "--family", "grid", "--sizes", "8,16",
            "--samples", "10", "--seed", "3"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "alpha=" in capsys.readouterr().out


def test_estimate_rejects_bad_sizes():
    assert main(["estimate", "alpha", "--family", "grid",
                 "--sizes", "8;16", "--samples", "5"]) == 2


# -- flood and epicenter ----------------------------------------------------


def test_flood_reports_count(tmp_path, capsys):
    path = tmp_path / "g5.json"
    assert main(["gen", "grid", "--n", "5", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["flood", "--graph", str(path),
                 "--site", "2,2", "--radius", "1"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.isdigit() and int(first) > 0


def test_epicenter_trace_artifact(tmp_path, capsys):
    path = tmp_path / "g9.json"
    assert main(["gen", "grid", "--n", "9", "-o", str(path)]) == 0
    out = tmp_path / "trace.json"
    code = main(["epicenter", "--graph", str(path), "--source", "4,4",
                 "--target", "8,8", "-o", str(out)])
    assert code == 0
    assert "flooded=True" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["command"] == "epicenter"
    results = payload["results"]
    assert results["target_flooded"] is True
    assert int(results["total"]) >= 1
    assert len(results["steps"]) >= 1


# -- plumbing ---------------------------------------------------------------


def test_exit_codes():
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["stabilize", "--graph", "/no/such/file.json",
                 "--uniform", "1"]) == 2


def test_malformed_site(grid2_path):
    assert main(["tcl", "single-site", "--graph", grid2_path,
                 "--site", "x,y"]) == 2
    assert main(["tcl", "single-site", "--graph", grid2_path,
                 "--site", "9,9"]) == 2


@pytest.mark.parametrize("coords, named", [
    ({"a": [0, 0]}, "'a'"),
    ({"99": [0, 0]}, "'99'"),
    ({"0": "ab"}, "'ab'"),
    ([1, 2], "coords must be an object"),
    ({"0": [0]}, "[0]"),
])
def test_malformed_coords_exit_2(tmp_path, capsys, coords, named):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "n_vertices": 3,
        "sink": 2,
        "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]],
        "coords": coords,
    }))
    assert main(["flood", "--graph", str(path), "--site", "0",
                 "--radius", "0"]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"n_vertices": Infinity, "sink": 1, "edges": [[0, 1, 1]]}',
    '{"n_vertices": 2, "sink": 1, "edges": [[0, 1, -1e400]]}',
    '{"n_vertices": %d, "sink": 1, "edges": [[0, 1, 1]]}' % 10**12,
])
def test_unbuildable_graph_json_exits_2_fast(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["stabilize", "--graph", str(path), "--uniform", "1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "malformed graph JSON" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sandlab.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "stabilize" in proc.stdout
