"""End-to-end acceptance battery, one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``)
and then asserts.  Criterion 4 checks the capacity formulas against
enumeration and bounds the cost of flooding a radius-n diamond from its
centre by the capacity the support sandwich proves, that of the
radius-(n-1) square plus one, asserting each link of that argument.  The
diamond's own capacity is no bound: particles spread into the square
before the diamond floods (672 particles flood radius 10, whose diamond
holds 663).
"""

import math
import time

import numpy as np

from sandlab import (
    BoundParams,
    LatticeFunction,
    analytic_toppling_bounds,
    ball_capacities,
    check_preservation_lemma,
    dual_threshold_bound,
    effective_resistance,
    engine_stats,
    estimate_alpha,
    estimate_hlc,
    estimate_ls,
    estimate_mv,
    estimate_op,
    find_central_path_grid,
    flood_count,
    grid_sandpile,
    line_sandpile,
    min_to_topple,
    min_to_topple_uniform,
    point_config,
    potential_checks,
    propagate,
    recurrent_count,
    single_step,
    solve_potential,
    spanning_tree_count,
    stabilize,
    support_sandwich,
    tcl_bound,
    tcl_exact,
    tcl_single_site,
)

import oracles


def _verdict(num: int, ok: bool, text: str) -> str:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}"
    print(line)
    return line


def test_criterion_01_abelian_invariance():
    start = time.perf_counter()
    g = grid_sandpile(8)
    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        config = [int(x) for x in rng.integers(0, 2 * g.degree)]
        base = stabilize(g, config, policy="batch")
        for policy in ("fifo", "lifo", "random"):
            res = stabilize(g, config, policy=policy, seed=seed)
            if not (np.array_equal(res.stable, base.stable)
                    and np.array_equal(res.score, base.score)):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10
    line = _verdict(1, ok, f"100 configs x 4 policies, {mismatches} "
                           f"mismatches, {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_small_grid_battery():
    start = time.perf_counter()
    g = grid_sandpile(2)
    v00, v01 = g.vertex_at(0, 0), g.vertex_at(0, 1)
    v10, v11 = g.vertex_at(1, 0), g.vertex_at(1, 1)
    tol = 1e-12

    fld = solve_potential(g, v00)
    expected = {v00: 1.0, v01: 2 / 7, v10: 2 / 7, v11: 1 / 7}
    pot_err = max(abs(fld.values[v] - x) for v, x in expected.items())
    reff_err = abs(effective_resistance(g, v00, g.sink) - 7 / 24)

    m = min_to_topple(g, v11, v00)
    lo, hi = analytic_toppling_bounds(g, v11, v00)
    _, dual = dual_threshold_bound(g, v11, 1, v00)
    thr = min_to_topple_uniform(g, g.ordinary_ball(v11, 1), v00)
    n_rec = recurrent_count(g)

    elapsed = time.perf_counter() - start
    ok = (pot_err <= tol and reff_err <= tol
          and m == 30
          and abs(lo - 12 / 5) <= tol and abs(hi - 36.0) <= tol
          and lo <= m <= hi
          and abs(dual - 36 / 5) <= tol
          and thr.h_no_topple == 5 and thr.h_no_topple <= dual
          and n_rec == 192 and spanning_tree_count(g) == 192
          and elapsed < 1)
    line = _verdict(2, ok, f"pot_err={pot_err:.1e} reff_err={reff_err:.1e} "
                           f"m={m} dual={dual} recurrent={n_rec}, "
                           f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_03_identity_audit_volume():
    g = grid_sandpile(4)
    rng = np.random.default_rng(2718)
    before = engine_stats()
    for _ in range(10_000):
        config = [int(x) for x in rng.integers(0, 2 * g.degree)]
        stabilize(g, config)
    stats = {key: count - before[key] for key, count in engine_stats().items()}
    ok = (stats["stabilizations"] == 10_000
          and stats["identity_checks"] == stats["stabilizations"]
          and stats["identity_failures"] == 0)
    line = _verdict(3, ok, f"{stats['stabilizations']} stabilizations, "
                           f"{stats['identity_checks']} audits, "
                           f"{stats['identity_failures']} failures")
    assert ok, line


def test_criterion_04_capacity_formulas_and_flood_cap():
    start = time.perf_counter()
    formula_bad = [
        n for n in range(65)
        if ball_capacities(n) != (3 * oracles.square_site_count(n),
                                  3 * oracles.diamond_site_count(n))
    ]
    g = grid_sandpile(51)
    c = g.vertex_at(25, 25)
    cx, cy = g.coords[c]
    broken = []
    over_diamond = []
    for n in range(1, 13):
        ball = g.ordinary_ball(c, n)
        need = flood_count(g, c, ball)
        # Capacity bound on the flood cost, link by link, one particle
        # short of flooding:
        # 1. the radius-n diamond is not flooded;
        # 2. so its tip at distance n has not received a particle, and the
        #    toppled set, dihedral and axis-monotone, sits between the
        #    diamond and the square of its sup-radius r (support_sandwich)
        #    with r <= n - 2; it is empty when n = 1;
        # 3. every site that received a particle is the centre, a toppled
        #    site or a neighbour of one, so it lies in the (n-1)-square;
        # 4. that square is interior, so no particle reaches the sink and
        #    all need - 1 particles sit stably in it, at most 3 per site:
        #    need <= ball_capacities(n - 1)[0] + 1 = 3(2n-1)^2 + 1.
        res = stabilize(g, point_config(g, c, need - 1))
        toppled = LatticeFunction.from_grid(g, res.score, c)
        r, sandwiched = support_sandwich(toppled)
        received = [g.coords[v] for v, x in enumerate(res.received) if x > 0]
        cap = ball_capacities(n - 1)[0] + 1
        links = {
            "diamond dry": not res.flooded(ball),
            "tip dry": res.received[g.vertex_at(cx + n, cy)] == 0,
            "sandwich": sandwiched and (r <= n - 2 or not toppled.support),
            "received in square": all(
                max(abs(x - cx), abs(y - cy)) <= n - 1 for x, y in received
            ),
            "no sink loss": res.sink_absorbed == 0,
            "particles kept": sum(res.stable) == need - 1,
            "cap": need <= cap,
        }
        failed = [name for name, held in links.items() if not held]
        if failed:
            broken.append(f"radius {n}: flood {need}, cap {cap}, "
                          f"failed {', '.join(failed)}")
        if need > ball_capacities(n)[1]:
            over_diamond.append(str(n))
    elapsed = time.perf_counter() - start
    ok = not formula_bad and not broken and elapsed < 30
    detail = "; ".join(broken) if broken else "all radii under capacity cap"
    seen = ", ".join(over_diamond) or "none"
    formulas = (f"formulas wrong for n={formula_bad}" if formula_bad
                else "formulas exact for n<=64")
    line = _verdict(4, ok, f"{formulas}; {detail} "
                           f"(diamond capacity exceeded at radii {seen}), "
                           f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_05_symmetry_preservation():
    start = time.perf_counter()
    failures = []
    for n in (11, 21, 31):
        for particles in (10, 100, 1000, 5000):
            chk = check_preservation_lemma(n, particles)
            _, inside = support_sandwich(chk.toppling)
            if not (chk.toppling_d4 and chk.toppling_axis and inside):
                failures.append((n, particles))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    line = _verdict(5, ok, f"12 combos, failures={failures or 'none'}, "
                           f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_06_potential_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    grids = {4: grid_sandpile(4), 8: grid_sandpile(8), 16: grid_sandpile(16)}

    laws_ok = True
    for n, count in ((4, 167), (8, 167), (16, 166)):
        g = grids[n]
        triples = [
            tuple(int(x) for x in rng.choice(g.n_ordinary, 3, replace=False))
            for _ in range(count)
        ]
        pairs = [(a, b) for a, b, _ in triples]
        laws_ok &= potential_checks(g, pairs, triples, tolerance=1e-9).ok

    bracket_bad = 0
    for n, count in ((4, 40), (8, 40), (16, 20)):
        g = grids[n]
        for _ in range(count):
            v, w = (int(x) for x in rng.choice(g.n_ordinary, 2, replace=False))
            lo, hi = analytic_toppling_bounds(g, v, w)
            if not lo <= min_to_topple(g, v, w) <= hi:
                bracket_bad += 1

    dual_bad = 0
    for n, count in ((4, 70), (8, 70), (16, 60)):
        g = grids[n]
        eta = g.eta()
        for _ in range(count):
            v = int(rng.integers(g.n_ordinary))
            r = int(min(rng.integers(0, 3), eta[v]))
            w = int(rng.integers(g.n_ordinary))
            _, bound = dual_threshold_bound(g, v, r, w)
            thr = min_to_topple_uniform(g, g.ordinary_ball(v, r), w)
            if thr.h_no_topple > bound + 1e-9:
                dual_bad += 1

    elapsed = time.perf_counter() - start
    ok = laws_ok and bracket_bad == 0 and dual_bad == 0 and elapsed < 120
    line = _verdict(6, ok, f"laws_ok={laws_ok} bracket_bad={bracket_bad} "
                           f"dual_bad={dual_bad} on 500/100/200 samples, "
                           f"{elapsed:.2f}s")
    assert ok, line


def test_criterion_07_estimator_coherence():
    start = time.perf_counter()
    alpha = estimate_alpha("grid", [8, 16], 30, 0)
    mv = estimate_mv("grid", [8, 16], 30, 0)
    ls = estimate_ls("grid", [8, 16], 50, 0)
    op = estimate_op("grid", [8, 16], 50, 0)
    a = alpha.estimates["alpha"]
    r1_err = mv.estimates["radius1_worst_err"]
    ls_viol = ls.flags["superposition_violations"]
    op_viol = op.flags["formula_violations"]
    elapsed = time.perf_counter() - start
    ok = (1.8 <= a <= 2.2
          and r1_err <= 1e-12
          and len(ls.rows) == 100 and ls_viol == 0
          and len(op.rows) >= 1 and op_viol == 0
          and elapsed < 300)
    line = _verdict(7, ok, f"alpha={a:.3f} radius1_err={r1_err:.1e} "
                           f"ls {ls_viol}/{len(ls.rows)} viol "
                           f"op {op_viol}/{len(op.rows)} viol, {elapsed:.2f}s")
    assert ok, line


def test_criterion_08_growth_separation():
    start = time.perf_counter()
    line_vals = {n: tcl_single_site(line_sandpile(n), 0).value
                 for n in range(3, 11)}
    worst_ratio = min(line_vals[n + 1] / line_vals[n] for n in range(4, 10))

    grid_vals = {}
    for n in (4, 8, 16, 32):
        g = grid_sandpile(n)
        grid_vals[n] = tcl_single_site(g, g.vertex_at(n // 2, n // 2)).value
    xs = [math.log(n) for n in grid_vals]
    ys = [math.log(v) for v in grid_vals.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))

    elapsed = time.perf_counter() - start
    ok = worst_ratio >= 1.5 and slope <= 4.0 and elapsed < 300
    line = _verdict(8, ok, f"line ratio>={worst_ratio:.2f} "
                           f"grid slope={slope:.2f}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_09_epicenter_propagation():
    start = time.perf_counter()
    alpha = estimate_alpha("grid", [8, 16], 30, 0)
    hlc = estimate_hlc("grid", [8, 16], 30, 0)
    mv = estimate_mv("grid", [8, 16], 30, 0)
    params = BoundParams.from_estimates(alpha, hlc, mv)
    big_k = params.epicenter_constant()

    problems = []
    for side in (9, 17, 33):
        g = grid_sandpile(side)
        center = g.vertex_at(side // 2, side // 2)
        targets = [
            (center, g.vertex_at(side - 1, side - 1)),
            (g.vertex_at(0, 0), center),
            (g.vertex_at(1, 1), g.vertex_at(side - 2, 1)),
        ]
        for p, q in targets:
            trace = propagate(g, p, q, params)
            if not trace.target_flooded:
                problems.append(f"n={side} target not flooded")
                continue
            path = find_central_path_grid(g, p, q)
            per_segment = {}
            for step in trace.steps:
                per_segment[step.segment] = per_segment.get(step.segment, 0) + 1
            for idx, count in per_segment.items():
                rate = path.segments[idx].advance_rate()
                base = rate if rate > 1.0 else params.g_hat
                cap = math.ceil(math.log(side) / math.log(base)) + 2
                if count > cap:
                    problems.append(f"n={side} segment {idx}: "
                                    f"{count} steps > cap {cap}")
            k_worst = max((s.multiplier for s in trace.steps), default=1)
            if k_worst > big_k:
                problems.append(f"n={side} step cost {k_worst} > {big_k:.1f}")
            if 10 * trace.total > tcl_bound(params, side):
                problems.append(f"n={side} total within 10x of ceiling")

        eta_c = int(g.eta()[center])
        need = flood_count(g, center, g.ordinary_ball(center, eta_c))
        u = g.vertex_at(side // 2 + eta_c // 2, side // 2)
        k_emp, bound = single_step(g, center, u,
                                   point_config(g, center, need), params)
        if k_emp > bound:
            problems.append(f"n={side} single step {k_emp} > bound {bound:.1f}")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 300
    line = _verdict(9, ok, f"9 targets, K={big_k:.1f}, "
                           f"problems={problems or 'none'}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_10_transience_small_cases():
    start = time.perf_counter()
    single = line_sandpile(1)
    pair = line_sandpile(2)
    t_single = tcl_exact(single).value
    t_pair = tcl_exact(pair).value
    n_rec = recurrent_count(pair)
    stable_states = int(np.prod(pair.degree))
    trees = spanning_tree_count(pair)
    elapsed = time.perf_counter() - start
    ok = (t_single == 0 and t_pair == 0
          and stable_states - n_rec == 1 and trees == n_rec == 15
          and elapsed < 1)
    line = _verdict(10, ok, f"values ({t_single}, {t_pair}), "
                            f"{stable_states - n_rec} transient of "
                            f"{stable_states}, {trees} trees, {elapsed:.2f}s")
    assert ok, line
