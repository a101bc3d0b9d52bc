import hashlib
import json
import os
import subprocess
import sys
import time

import click
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sandlab
from sandlab import build_sandpile, lattice_window, load_graph, save_graph, solve_potential
from sandlab.cli import cli, main


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


def test_negative_seed_is_a_precondition_error(grid2_path, capsys):
    for args in (["verify", "--graph", grid2_path],
                 ["estimate", "alpha", "--family", "grid", "--sizes", "8", "--samples", "3"]):
        assert main(args + ["--seed", "-1"]) == 2, args[0]
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err


def test_verify_draws_below_twice_a_huge_degree(tmp_path, capsys):
    # degrees of 2**62 + 1: twice that wraps in int64
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n_vertices": 3, "sink": 2, "edges": [
        [0, 1, 1], [0, 2, 1 << 62], [1, 2, 1 << 62]]}))
    assert main(["verify", "--graph", str(path), "--seed", "0"]) == 0
    assert capsys.readouterr().out.strip() == "identity+conservation: PASS"


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


def test_potentials_csv_above_the_lu_limit_is_stable_and_exact(tmp_path):
    # m = 5184 is above potentials.DIRECT_SOLVE_LIMIT: the lattice block
    # takes the sine-transform solve
    path = tmp_path / "g72.json"
    assert main(["gen", "grid", "--n", "72", "-o", str(path)]) == 0
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["potentials", "--graph", str(path),
                     "--pole", "30,40", "-o", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    g = load_graph(path)
    w = g.vertex_at(30, 40)
    rhs = np.zeros(g.n_ordinary)
    rhs[w] = 1.0
    x = spla.splu(sp.csc_matrix(g.laplacian().astype(float))).solve(rhs)
    lines = outs[0].read_text().splitlines()
    assert lines[0] == "vertex,value" and len(lines) == g.n_ordinary + 1
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert np.abs(got - x / x[w]).max() <= 1e-12


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


@pytest.mark.parametrize("option", [
    "--c-sigma", "--c-h", "--max-degree", "--delta-lo", "--alpha", "--g-hat",
])
def test_epicenter_takes_no_bound_constants(grid2_path, option):
    assert main(["epicenter", "--graph", grid2_path, "--source", "0",
                 "--target", "3", option, "2"]) == 1


def test_epicenter_negative_max_steps_exits_2(grid2_path, capsys):
    assert main(["epicenter", "--graph", grid2_path, "--source", "0",
                 "--target", "3", "--max-steps", "-1"]) == 2
    err = capsys.readouterr().err
    assert "max_steps must be nonnegative, got -1" in err and "Traceback" not in err


# -- golden artifacts -------------------------------------------------------

# sha256 of each -o artifact: a change to how graphs are stored or how
# counts flow must leave every byte of these files as it is
_GOLDEN = {
    "grid5.json": "d0dc834d5d765cc1760b846e36277f8cdd44a1f9b5a79d5045dda3899f6e1b6d",
    "grid8.json": "b761ae00465c714ccc062e503f135202ae20ac67c5a818745143b233347778e5",
    "grid9.json": "12768962787a5175a88c56b6e3fbcc6576c0af279c88e6dc3df70687f4c498e1",
    "line6.json": "fe9b3f982dd12deb2e18f4fad6a0b275a110e686d10e9f9692153c8a1dbdfbab",
    "strip9x13.json": "13793713e147f9982e52845d13f2312c18cab167827f674353cdabc73d278e8a",
    "lshape.json": "a3493b94c4262c9d18b5aac1575d3f34b4a8b5867187182fb74c3c30993bc955",
    "stabilize-batch.json":
        "6233e6f59ffffa8ae250c0b7e6a3e33e46846b24e68c7df6bd333de5b60a2c0c",
    "stabilize-fifo.json":
        "ef60cc1fc296d7579c7dbd8fa43e04911d25b30a4e09027fda33aaa2612ccbf8",
    "stabilize-bigint.json":
        "dc9a0fd2ea3f8f209701e50f3970b5b4542624b870532df2b202e27cdd33e04e",
    "stabilize-lshape.json":
        "1f91b86356017958ce93e5d06b18ef594d9bf7cea63790491c8656557af2e4aa",
    "flood.json": "ca2cc6e1c49683d71cae96f2d9cadea56a944a0851407d2ce0967734b5442ba6",
    "tcl-single-site.json":
        "3f3266620b5ac3b10b6c3ce43285ee336c2d8d0c5bdccd98015bbf404bbc8604",
    "epicenter.json": "c4c9f9299bc9e4624d6a490d260487f734a4953600d7e45d5c80b57c40587931",
    "epicenter-heuristic.json":
        "e7e8d298bbaad24a848cdc10c1225881051b81ef4680f5d0a99473239372168a",
    "potentials.csv": "463699920fce7761dae2647d92937d6fae96739dc0dc3a465b3444e2fd7a1b03",
    "alpha.csv": "be9ac73770c99976d5204b14bbdcbce4e1da2e722d57da844e2e978c60a49c32",
    "hlc.csv": "1136c085ba16aff2302c2cd8a9c4113e1044aba831b692bf664b05e34dae3f72",
}


def test_cli_artifacts_match_golden_digests(tmp_path):
    p = lambda name: str(tmp_path / name)  # noqa: E731
    runs = [
        ("grid5.json", ["gen", "grid", "--n", "5"]),
        ("grid8.json", ["gen", "grid", "--n", "8"]),
        ("grid9.json", ["gen", "grid", "--n", "9"]),
        ("line6.json", ["gen", "line", "--n", "6"]),
        ("strip9x13.json", ["gen", "strip", "--k", "9", "--n", "13"]),
        ("stabilize-batch.json",
         ["stabilize", "--graph", p("grid5.json"), "--site", "2,2", "--count", "300"]),
        ("stabilize-fifo.json",
         ["stabilize", "--graph", p("grid5.json"), "--uniform", "9", "--policy", "fifo"]),
        ("stabilize-bigint.json",
         ["stabilize", "--graph", p("line6.json"), "--site", "1", "--count", str(10**20)]),
        ("stabilize-lshape.json",
         ["stabilize", "--graph", p("lshape.json"), "--site", "3,3", "--count", "500"]),
        ("flood.json",
         ["flood", "--graph", p("grid9.json"), "--site", "4,4", "--radius", "3"]),
        ("tcl-single-site.json",
         ["tcl", "single-site", "--graph", p("grid9.json"), "--site", "4,4"]),
        ("epicenter.json",
         ["epicenter", "--graph", p("grid9.json"), "--source", "4,4", "--target", "8,8"]),
        ("epicenter-heuristic.json",
         ["epicenter", "--graph", p("strip9x13.json"), "--source", "4,1",
          "--target", "4,11", "--heuristic"]),
        ("potentials.csv", ["potentials", "--graph", p("grid8.json"), "--pole", "3,4"]),
        ("alpha.csv", ["estimate", "alpha", "--family", "grid", "--sizes", "8,12",
                       "--samples", "6", "--seed", "3"]),
        ("hlc.csv", ["estimate", "hlc", "--family", "line", "--sizes", "6,8",
                     "--samples", "4", "--seed", "1"]),
    ]
    # an L-shaped window collapsed by build_sandpile, saved as graph JSON:
    # no lattice block, so its batch stabilization takes the worklist
    inside = [x * 14 + y for x in range(1, 13) for y in range(1, 13) if x < 6 or y < 6]
    save_graph(build_sandpile(lattice_window(14, 14), inside), p("lshape.json"))
    for name, args in runs:
        assert main(args + ["-o", p(name)]) == 0, name
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _GOLDEN}
    assert digests == _GOLDEN


_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
tmp = sys.argv[2]

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import sandlab, sandlab.cli
seen = {"import": scipy_modules()}
main = sandlab.cli.main
grid = tmp + "/grid8.json"
big = tmp + "/grid72.json"
runs = {
    "gen": ["gen", "grid", "--n", "8"],
    "stabilize": ["stabilize", "--graph", grid, "--site", "2,2", "--count", "300"],
    "flood": ["flood", "--graph", grid, "--site", "4,4", "--radius", "2"],
    "epicenter": ["epicenter", "--graph", grid, "--source", "3,3", "--target", "7,7"],
    "gen72": ["gen", "grid", "--n", "72"],
    "sine": ["potentials", "--graph", big, "--pole", "36,36"],
    "potentials": ["potentials", "--graph", grid, "--pole", "3,4"],
}
outputs = {"gen": grid, "gen72": big, "potentials": tmp + "/potentials.csv"}
for name, args in runs.items():
    if main(args + ["-o", outputs.get(name, tmp + "/" + name + ".out")]) != 0:
        sys.exit(name + " failed")
    seen[name] = scipy_modules()
print(json.dumps(seen))
"""


def test_only_the_laplacian_solver_loads_scipy(tmp_path):
    # importing sandlab, every engine-side command and a sine-transform solve
    # (grid 72 is above the LU limit) stay clear of scipy, whose import costs
    # more than these answers; an LU potentials run loads it
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, src, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "gen", "stabilize", "flood", "epicenter", "gen72", "sine"):
        assert seen[step] == [], step
    assert "scipy.sparse.linalg" in seen["potentials"]
    digest = hashlib.sha256((tmp_path / "potentials.csv").read_bytes()).hexdigest()
    assert digest == _GOLDEN["potentials.csv"]


# -- plumbing ---------------------------------------------------------------


def test_exit_codes():
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["stabilize", "--graph", "/no/such/file.json",
                 "--uniform", "1"]) == 2


def _commands(group, prefix=()):
    for name, command in group.commands.items():
        path = prefix + (name,)
        if isinstance(command, click.Group):
            yield from _commands(command, path)
        else:
            yield " ".join(path), command


def test_command_options_are_pinned():
    # a new knob must show up here as a reviewed change
    options = {
        path: sorted(opt for param in command.params for opt in param.opts)
        for path, command in _commands(cli)
    }
    assert options == {
        "gen": ["--k", "--n", "--output", "-o", "family"],
        "stabilize": ["--count", "--graph", "--output", "--policy", "--seed",
                      "--site", "--uniform", "-o"],
        "tcl exact": ["--graph", "--output", "-o"],
        "tcl single-site": ["--graph", "--output", "--site", "-o"],
        "potentials": ["--graph", "--output", "--pole", "-o"],
        "estimate": ["--family", "--output", "--samples", "--seed", "--sizes",
                     "-o", "prop"],
        "flood": ["--graph", "--output", "--radius", "--site", "-o"],
        "epicenter": ["--graph", "--heuristic", "--max-steps", "--output",
                      "--source", "--target", "-o"],
        "verify": ["--count", "--graph", "--seed", "--site"],
    }


def test_malformed_site(grid2_path):
    assert main(["tcl", "single-site", "--graph", grid2_path,
                 "--site", "x,y"]) == 2
    assert main(["tcl", "single-site", "--graph", grid2_path,
                 "--site", "9,9"]) == 2


def test_tcl_single_site_refuses_an_unreachable_vertex(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"n_vertices": 3, "sink": 2,
                                "edges": [[0, 2, 1], [1, 2, 1]]}))
    assert main(["tcl", "single-site", "--graph", str(path), "--site", "0"]) == 2
    err = capsys.readouterr().err
    assert "target 1 is unreachable" in err and "Traceback" not in err


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


@pytest.mark.parametrize("document, named", [
    ({"n_vertices": 2, "sink": 1, "edges": [[0, 1, 1.5]]}, "edge [0, 1, 1.5]"),
    ({"n_vertices": "2", "sink": 1, "edges": [[0, 1, 4]]}, "n_vertices must be an integer"),
    ({"n_vertices": 2, "sink": True, "edges": [[0, 1, 4]]}, "sink must be an integer"),
    ({"n_vertices": 2, "sink": 1, "edges": [[0.2, 1, 4]]}, "edge [0.2, 1, 4]"),
    ({"n_vertices": 2, "sink": 1, "edges": [["0", "1", "4"]]}, "edge ['0', '1', '4']"),
], ids=["float-multiplicity", "string-n", "bool-sink", "float-endpoint", "string-edge"])
def test_graph_json_needs_integers_exits_2(tmp_path, capsys, document, named):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(document))
    assert main(["stabilize", "--graph", str(path), "--uniform", "1"]) == 2
    err = capsys.readouterr().err
    assert "malformed graph JSON" in err and named in err


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


@pytest.mark.parametrize("content, said", [
    (b"\xff\xfe{", "is not valid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "nests JSON too deeply"),
    # past Python's int-string limit of 4 300 digits, json.load raises a
    # plain ValueError
    (b'{"n_vertices": 2, "sink": 1, "edges": [[0, 1, ' + b"7" * 5000 + b"]]}",
     "is not valid JSON"),
], ids=["not-utf8", "nested-100000-deep", "integer-5000-digits"])
def test_unreadable_graph_file_exits_2(tmp_path, capsys, content, said):
    path = tmp_path / "g.json"
    path.write_bytes(content)
    assert main(["stabilize", "--graph", str(path), "--uniform", "1"]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and said in err and "Traceback" not in err


_JSON_BYTES = st.lists(st.sampled_from(list(b'0123456789-+.eE[]{},:" aIN')),
                       min_size=1, max_size=4).map(bytes)


@st.composite
def _mutated(draw, original):
    """``original`` with a few byte runs replaced, inserted or deleted."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        chunk = draw(st.one_of(st.binary(min_size=1, max_size=4), _JSON_BYTES))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "replace":
            data[i:i + len(chunk)] = chunk
        elif op == "insert":
            data[i:i] = chunk
        else:
            del data[i:i + len(chunk)]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.json"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@example(data=None)
def test_stabilize_survives_mutated_graph_files(grid2_path, fuzz_path, data):
    with open(grid2_path, "rb") as fh:
        original = fh.read()
    fuzz_path.write_bytes(original if data is None else data.draw(_mutated(original)))
    code = main(["stabilize", "--graph", str(fuzz_path), "--uniform", "1"])
    assert code in (0, 1, 2, 3)


def test_module_entry_point():
    # the child finds the sandlab under test, installed or not
    src = os.path.dirname(os.path.dirname(sandlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sandlab.cli", "--help"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "stabilize" in proc.stdout
