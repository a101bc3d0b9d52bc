"""Command-line driver: generate graphs, run experiments, write artifacts.

Output files are byte-deterministic functions of the invocation: wall time
goes to stdout only, never into an artifact.  Exit codes: 0 success, 1
usage error, 2 precondition violation, 3 resource limit.
"""

from __future__ import annotations

import json
import os
import time

import click

from . import engine, epicenter, estimators, graph_core, potentials
from .errors import PreconditionError, ResourceLimitError

STATE_LIMIT_ENV = "SANDLAB_STATE_LIMIT"


def _parse_site(g, text: str) -> int:
    """A site is either an ordinary vertex id or an 'x,y' coordinate pair."""
    text = text.strip()
    if "," in text:
        try:
            x, y = (int(part) for part in text.split(","))
        except ValueError:
            raise PreconditionError(f"malformed site {text!r}") from None
        return g.vertex_at(x, y)
    try:
        v = int(text)
    except ValueError:
        raise PreconditionError(f"malformed site {text!r}") from None
    g.check_ordinary(v, "site")
    return v


def _parse_sizes(text: str):
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise PreconditionError(f"malformed size list {text!r}") from None
    if not sizes:
        raise PreconditionError("size list is empty")
    return sizes


def _write_text(path, content: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(content)
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc


def _write_report(path, command: str, seed, results) -> None:
    payload = {"command": command, "seed": seed, "results": results}
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(graph_path):
    try:
        return graph_core.load_graph(graph_path)
    except OSError as exc:
        raise PreconditionError(f"cannot read {graph_path}: {exc}") from exc
    except ValueError as exc:
        raise PreconditionError(f"{graph_path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise PreconditionError(f"{graph_path} nests JSON too deeply") from None


def _state_limit() -> int:
    raw = os.environ.get(STATE_LIMIT_ENV)
    if raw is None:
        return engine.DEFAULT_STATE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(
            f"{STATE_LIMIT_ENV} must be an integer, got {raw!r}"
        ) from None


@click.group()
def cli():
    """Sandpile experiments: stabilization, potentials, estimators, flooding."""


@cli.command()
@click.argument("family", type=click.Choice(["grid", "line", "strip"]))
@click.option("--n", type=int, required=True, help="Family size parameter.")
@click.option("--k", type=int, default=None, help="Row count for strip.")
@click.option("-o", "--output", type=click.Path(), required=True)
def gen(family, n, k, output):
    """Generate a family member and write its graph JSON."""
    if family == "strip" and k is None:
        raise PreconditionError("strip needs --k")
    g = graph_core.gen_family(family, *((k, n) if family == "strip" else (n,)))
    try:
        graph_core.save_graph(g, output)
    except OSError as exc:
        raise PreconditionError(f"cannot write {output}: {exc}") from exc
    click.echo(f"wrote {output}: {g.n_ordinary} ordinary vertices, "
               f"sink degree {int(g.sink_mult.sum())}")


@cli.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--site", default=None, help="Placement site, id or x,y.")
@click.option("--count", type=int, default=None, help="Particles at --site.")
@click.option("--uniform", type=int, default=None,
              help="Per-site count placed everywhere instead of --site.")
@click.option("--policy", default="batch",
              type=click.Choice(["batch", "fifo", "lifo", "random"]))
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
def stabilize(graph_path, site, count, uniform, policy, seed, output):
    """Stabilize a placement and report the outcome."""
    g = _load(graph_path)
    if uniform is not None:
        config = engine.uniform_config(g, range(g.n_ordinary), uniform)
    elif site is not None and count is not None:
        config = engine.point_config(g, _parse_site(g, site), count)
    else:
        raise PreconditionError("need --site with --count, or --uniform")
    start = time.perf_counter()
    res = engine.stabilize(g, config, policy=policy, seed=seed)
    elapsed = time.perf_counter() - start
    if output:
        _write_report(output, "stabilize", seed, res.to_json())
    click.echo(f"topplings={res.topplings_total} absorbed={res.sink_absorbed} "
               f"wall_time_s={elapsed:.3f}")


@cli.group()
def tcl():
    """Transience measurements."""


@tcl.command("exact")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("-o", "--output", type=click.Path(), default=None)
def tcl_exact_cmd(graph_path, output):
    """Longest transient addition chain from empty (small graphs only)."""
    g = _load(graph_path)
    start = time.perf_counter()
    res = engine.tcl_exact(g, state_limit=_state_limit())
    elapsed = time.perf_counter() - start
    if output:
        _write_report(output, "tcl_exact", None, {
            "value": res.value, "mode": res.mode, "witness": list(res.witness),
        })
    click.echo(f"{res.value}")
    click.echo(f"wall_time_s={elapsed:.3f}")


@tcl.command("single-site")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--site", required=True, help="Placement site, id or x,y.")
@click.option("-o", "--output", type=click.Path(), default=None)
def tcl_single_site_cmd(graph_path, site, output):
    """Least count at a site whose stabilization topples every vertex."""
    g = _load(graph_path)
    v = _parse_site(g, site)
    start = time.perf_counter()
    res = engine.tcl_single_site(g, v)
    elapsed = time.perf_counter() - start
    if output:
        _write_report(output, "tcl_single_site", None, {
            "value": res.value, "mode": res.mode, "witness": res.witness,
        })
    click.echo(f"{res.value}")
    click.echo(f"wall_time_s={elapsed:.3f}")


@cli.command("potentials")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--pole", required=True, help="Pole site, id or x,y.")
@click.option("-o", "--output", type=click.Path(), default=None)
def potentials_cmd(graph_path, pole, output):
    """Solve the harmonic field for one pole; CSV is vertex,value."""
    g = _load(graph_path)
    w = _parse_site(g, pole)
    start = time.perf_counter()
    fld = potentials.solve_potential(g, w)
    elapsed = time.perf_counter() - start
    if output:
        lines = ["vertex,value"]
        lines += [f"{v},{float(fld.values[v])!r}" for v in range(g.n_ordinary)]
        _write_text(output, "\n".join(lines) + "\n")
    click.echo(f"pole={w} mass={fld.total!r} residual={fld.residual:.3e} "
               f"wall_time_s={elapsed:.3f}")


@cli.command()
@click.argument("prop", type=click.Choice(["alpha", "hlc", "mv", "ls", "op"]))
@click.option("--family", required=True, type=click.Choice(["grid", "line"]))
@click.option("--sizes", required=True, help="Comma-separated sizes, e.g. 8,16.")
@click.option("--samples", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
def estimate(prop, family, sizes, samples, seed, output):
    """Estimate a family constant and emit the sample CSV."""
    runner = {
        "alpha": estimators.estimate_alpha,
        "hlc": estimators.estimate_hlc,
        "mv": estimators.estimate_mv,
        "ls": estimators.estimate_ls,
        "op": estimators.estimate_op,
    }[prop]
    start = time.perf_counter()
    report = runner(family, _parse_sizes(sizes), samples, seed)
    elapsed = time.perf_counter() - start
    csv = report.to_csv()
    if output:
        _write_text(output, csv)
        summary = " ".join(f"{k}={v!r}" for k, v in sorted(report.estimates.items()))
        click.echo(f"{summary} excluded={report.excluded} "
                   f"wall_time_s={elapsed:.3f}")
    else:
        click.echo(csv, nl=False)


@cli.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--site", required=True, help="Flood source, id or x,y.")
@click.option("--radius", type=int, required=True)
@click.option("-o", "--output", type=click.Path(), default=None)
def flood(graph_path, site, radius, output):
    """Least placement at a site that floods the ball around it."""
    g = _load(graph_path)
    v = _parse_site(g, site)
    ball = g.ordinary_ball(v, radius)
    start = time.perf_counter()
    count = engine.flood_count(g, v, ball)
    elapsed = time.perf_counter() - start
    if output:
        _write_report(output, "flood", None, {
            "site": v, "radius": radius, "ball_size": len(ball), "count": count,
        })
    click.echo(f"{count}")
    click.echo(f"wall_time_s={elapsed:.3f}")


@cli.command("epicenter")
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--source", required=True, help="Start site, id or x,y.")
@click.option("--target", required=True, help="Goal site, id or x,y.")
@click.option("--heuristic", is_flag=True,
              help="Allow a best-effort shortest path off the grid family.")
@click.option("--max-steps", type=int, default=10_000, show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None)
def epicenter_cmd(graph_path, source, target, heuristic, max_steps, output):
    """Propagate a flooded ball from source to target along a central path."""
    g = _load(graph_path)
    p = _parse_site(g, source)
    q = _parse_site(g, target)
    start = time.perf_counter()
    trace = epicenter.propagate(g, p, q, epicenter.BoundParams.grid_defaults(),
                                heuristic=heuristic, max_steps=max_steps)
    elapsed = time.perf_counter() - start
    if output:
        _write_report(output, "epicenter", None, trace.to_json())
    click.echo(f"k0={trace.k0} steps={len(trace.steps)} total={trace.total} "
               f"flooded={trace.target_flooded} wall_time_s={elapsed:.3f}")


@cli.command()
@click.option("--graph", "graph_path", required=True, type=click.Path())
@click.option("--site", default=None, help="Point placement site, id or x,y.")
@click.option("--count", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for the random configuration when no site is given.")
def verify(graph_path, site, count, seed):
    """Stabilize and recheck the result against the exact balance identity."""
    import numpy as np

    g = _load(graph_path)
    if site is not None:
        if count is None:
            raise PreconditionError("--site needs --count")
        config = engine.point_config(g, _parse_site(g, site), count)
    else:
        if seed < 0:
            raise PreconditionError(f"seed must be nonnegative, got {seed}")
        rng = np.random.default_rng(seed)
        # uint64: twice a degree near 2**63 wraps in int64
        high = 2 * g.degree.astype(np.uint64)
        config = [int(x) for x in rng.integers(0, high, dtype=np.uint64)]
    res = engine.stabilize(g, config)
    ok = engine._balance_check(g, config, res.stable, res.score) == res
    click.echo(f"identity+conservation: {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise PreconditionError("balance recheck failed")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except PreconditionError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ResourceLimitError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
