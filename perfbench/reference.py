"""Independent reference for every command the benchmark issues.

Nothing here calls the rank routines on the timed path (`int_rank`,
`controllability_rank_ints`, `parent_rank_ints`, `quiver_thin_status`).
Ranks are first settled by a rank computation modulo the prime 2^61 - 1:
full rank mod p proves full rank over Q.  A deficient rank mod p falls
back to the package's exact oracles, `invariant_subspace_dim` for control
and `column_pivots` for DAG samples, which share no code with Bareiss.
Strata, d_min and connectivity come from closed forms, quiver verdicts
from a subset scan written independently of the package's.

`expect(cmd)` is the expensive part (it redraws every trial and every
path point) and is cached per seed by the caller; `check(cmd, expected,
rc, payload)` compares one command's exit code and JSON output.
"""

from __future__ import annotations

import math
from fractions import Fraction

P = (1 << 61) - 1


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over GF(2^61 - 1)."""
    rows = [[x % P for x in row] for row in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, P)
        top = [x * inv % P for x in rows[rank]]
        for r in range(rank + 1, nrows):
            lead = rows[r][col]
            if lead:
                rows[r] = [(x - lead * t) % P for x, t in zip(rows[r], top)]
        rank += 1
        if rank == nrows:
            break
    return rank


def integer_rows(rows) -> list[list[int]]:
    """Scale each rational row by the lcm of its denominators."""
    out = []
    for row in rows:
        row = [Fraction(x) for x in row]
        scale = math.lcm(*(x.denominator for x in row))
        out.append([int(x * scale) for x in row])
    return out


def control_rank(a: list[list[int]], b: list[list[int]]) -> int:
    """Dimension of the reachable subspace of (A, B)."""
    n, m = len(a), len(b[0])
    cols = [[b[i][j] % P for i in range(n)] for j in range(m)]
    block = cols
    for _ in range(n - 1):
        block = [[sum(a[i][t] * c[t] for t in range(n)) % P for i in range(n)]
                 for c in block]
        cols = cols + block
    if rank_mod_p(cols) == n:
        return n
    from git_topo.families.control import ControlInstance, invariant_subspace_dim
    from git_topo.linalg import Matrix

    inst = ControlInstance(
        n, m,
        Matrix(n, n, tuple(x for row in a for x in row)),
        Matrix(n, m, tuple(x for row in b for x in row)),
    )
    return invariant_subspace_dim(inst)


def column_rank(x: list[list[int]]) -> int:
    """Column rank of an integer matrix (the DAG parent block)."""
    k = len(x[0])
    if rank_mod_p(x) == k:
        return k
    from git_topo.linalg import Matrix, column_pivots

    return len(column_pivots(Matrix.from_rows(x)))


def quiver_scan(spec: dict) -> tuple[str, list[int], int | None]:
    """King verdict of a thin representation, with the package's witness rule.

    Returns (verdict, witness support, theta sum): the witness is the
    first closed subset in increasing mask order whose theta sum is the
    maximum over closed proper nonempty subsets of the support.  Closure
    and theta sums are built by dynamic programming over masks.
    """
    dims, theta = spec["dim"], spec["theta"]
    support = [v for v, d in enumerate(dims) if d == 1]
    slot = {v: i for i, v in enumerate(support)}
    succ = [0] * len(support)
    for (s, t), value in zip(spec["arrows"], spec["values"]):
        live = any(Fraction(x) for x in (value if isinstance(value, list) else [value]))
        s, t = s - 1, t - 1
        if live and s in slot and t in slot:
            succ[slot[s]] |= 1 << slot[t]
    size = 1 << len(support)
    reach = [0] * size
    weight = [0] * size
    best = None
    best_mask = 0
    for mask in range(1, size - 1):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        reach[mask] = reach[rest] | succ[i]
        weight[mask] = weight[rest] + theta[support[i]]
        if reach[mask] & ~mask == 0 and (best is None or weight[mask] > best):
            best, best_mask = weight[mask], mask
    if best is None or best < 0:
        return "stable", [], None
    witness = [support[i] + 1 for i in range(len(support)) if best_mask >> i & 1]
    return ("unstable" if best > 0 else "not_stable"), witness, best


# Closed-form strata.  Each entry is (descriptor, m, orbit_dim, value).


def _orbit(a: int, d: int, convention: str) -> int:
    # GL(d) with weights (0^a, (-1)^(d-a)): the parabolic has codimension
    # a(d-a), the centralizer twice that.
    return a * (d - a) * (1 if convention == "parabolic" else 2)


def control_strata(n: int, m: int, convention: str) -> list[tuple]:
    out = []
    for r in range(1, n):
        mm = r * (n - r) + (n - r) * m
        orbit = _orbit(r, n, convention)
        out.append(({"invariant_subspace_dim": r}, mm, orbit, 2 * mm - 2 * orbit))
    return out


def dag_strata(n: int, k: int, convention: str) -> list[tuple]:
    out = []
    for j in range(1, k + 1):
        orbit = _orbit(j, k, convention)
        out.append(({"redundant_columns": j}, j * n, orbit, 2 * j * n - 2 * orbit))
    return out


def quiver_strata(spec: dict) -> list[tuple]:
    """Destabilizing sub-dimension vectors in the package's lex order."""
    from git_topo.families.quiver import QuiverSpec, sub_dimension_vectors

    dims, theta = spec["dim"], spec["theta"]
    arrows = [(s - 1, t - 1) for s, t in spec["arrows"]]
    qspec = QuiverSpec(len(dims), tuple(arrows), tuple(dims), tuple(theta))
    out = []
    for sub in sub_dimension_vectors(qspec):
        if sum(a * d for a, d in zip(theta, sub)) < 0:
            continue
        mm = sum(sub[s] * (dims[t] - sub[t]) for s, t in arrows)
        orbit = sum(_orbit(a, d, spec["convention"]) for a, d in zip(sub, dims) if d)
        out.append(({"sub_dim": list(sub)}, mm, orbit, 2 * mm - 2 * orbit))
    return out


def strata_for(spec: dict) -> list[tuple]:
    if spec["family"] == "control":
        return control_strata(spec["n"], spec["m"], spec["convention"])
    if spec["family"] == "dag":
        return dag_strata(spec["n"], spec["k"], spec["convention"])
    return quiver_strata(spec)


def _connectivity(d_min):
    if d_min is None:
        return "contractible"
    return d_min - 2 if d_min >= 2 else "no_information"


# Verify commands: redraw every trial through the seeded stream.


def _generic_hits(spec: dict) -> int:
    from git_topo.families import ControlFamily, DagFamily, kronecker_spec
    from git_topo.harness import TrialConfig, draw_instance

    family = spec["family"]
    if family == "control":
        fam = ControlFamily(spec["n"], spec["m"])
    elif family == "dag":
        fam = DagFamily(spec["n"], spec["k"])
    else:
        fam = kronecker_spec((1, -1))
    cfg = TrialConfig(fam, trials=spec["trials"], seed=spec["seed"], entry_bound=9)
    hits = 0
    for i in range(spec["trials"]):
        inst = draw_instance(cfg, i)
        if family == "control":
            stable = control_rank(inst.a.to_rows(), inst.b.to_rows()) == spec["n"]
        elif family == "dag":
            x = [list(inst.y.row(r)[: spec["k"]]) for r in range(spec["n"])]
            stable = column_rank(x) == spec["k"]
        else:
            # Kronecker quiver, theta (1, -1): unstable exactly at the origin.
            stable = any(inst.values)
        hits += not stable
    return hits


def _flat_stable(spec: dict, flat: list[int]) -> bool:
    n = spec["n"]
    if spec["family"] == "control":
        m = spec["m"]
        a = [flat[i * n:(i + 1) * n] for i in range(n)]
        b = [flat[n * n + i * m:n * n + (i + 1) * m] for i in range(n)]
        return control_rank(a, b) == n
    k = spec["k"]
    x = [flat[i * (k + 1):i * (k + 1) + k] for i in range(n)]
    return column_rank(x) == k


def _path_failures(spec: dict) -> int:
    """Replays the path stream: CounterRng(seed, 1, path), two rejection-
    sampled stable endpoints, one free midpoint, N^2-scaled points."""
    from git_topo.rng import CounterRng

    if spec["family"] == "control":
        length = spec["n"] * (spec["n"] + spec["m"])
    else:
        length = spec["n"] * (spec["k"] + 1)

    def draw(rng):
        return [rng.int_between(-9, 9) for _ in range(length)]

    def draw_stable(rng):
        for _ in range(1000):
            flat = draw(rng)
            if _flat_stable(spec, flat):
                return flat
        raise RuntimeError("no stable endpoint")

    big_n = spec["path_samples"]
    failures = 0
    for p in range(spec["paths"]):
        rng = CounterRng(spec["seed"], 1, p)
        left = draw_stable(rng)
        right = draw_stable(rng)
        mid = draw(rng)
        for i in range(big_n):
            c0 = (big_n - i) * (big_n - 2 * i)
            c1 = 4 * i * (big_n - i)
            c2 = i * (2 * i - big_n)
            point = [c0 * x + c1 * y + c2 * z for x, y, z in zip(left, mid, right)]
            failures += not _flat_stable(spec, point)
    return failures


def _path_skipped(spec: dict) -> bool:
    if spec["family"] == "control":
        strata = control_strata(spec["n"], spec["m"], "parabolic")
    else:
        strata = dag_strata(spec["n"], spec["k"], "centralizer")
    return min(s[3] for s in strata) < 2


def expect(cmd: dict) -> dict:
    """Reference values for one command (JSON-serializable, cacheable)."""
    spec = cmd["spec"]
    kind = cmd["kind"]
    if kind == "verify":
        reports = []
        if spec["family"] == "kronecker":
            grid = spec["grid"]
            reports.append({"op": "kronecker_oracle",
                            "trials_run": (2 * grid + 1) ** 4,
                            "oracle_mismatches": 0})
        else:
            reports.append({"op": "generic_points", "trials_run": spec["trials"],
                            "unstable_hits": _generic_hits(spec)})
            if spec.get("paths"):
                skipped = _path_skipped(spec)
                reports.append({
                    "op": "path_stability",
                    "trials_run": 0 if skipped else spec["paths"],
                    "path_failures": 0 if skipped else _path_failures(spec),
                    "skipped": skipped,
                })
            if spec.get("degenerate"):
                # X = U V has rank <= k - 1 by construction, and
                # stabilization provably restores rank k when n >= k.
                reports.append({"op": "constructed_degenerates",
                                "trials_run": spec["degenerate"],
                                "oracle_mismatches": 0})
        ok = not any(r.get("unstable_hits") or r.get("path_failures")
                     or r.get("oracle_mismatches") for r in reports)
        return {"rc": 0 if ok else 1, "ok": ok, "reports": reports}
    if kind == "check":
        family = spec["family"]
        if family == "control":
            r = control_rank(spec["A"], spec["B"])
            verdict = "stable" if r == spec["n"] else "unstable"
            return {"rc": 0, "verdict": verdict, "evidence": {"rank": r}}
        if family == "dag":
            k = spec["k"]
            r = column_rank([row[:k] for row in spec["Y"]])
            verdict = "stable" if r == k else "not_stable"
            return {"rc": 0, "verdict": verdict, "evidence": {"rank": r}}
        verdict, support, theta_sum = quiver_scan(spec)
        evidence = {} if verdict == "stable" else {"support": support,
                                                   "theta_sum": theta_sum}
        return {"rc": 0, "verdict": verdict, "evidence": evidence}
    strata = strata_for(spec)
    return {"rc": 0, "strata": len(strata),
            "d_min": min((s[3] for s in strata), default=None)}


def _check_verify(expected: dict, payload: dict) -> str | None:
    if payload.get("ok") is not expected["ok"]:
        return f"ok = {payload.get('ok')}, reference says {expected['ok']}"
    reports = payload.get("reports", [])
    if len(reports) != len(expected["reports"]):
        return f"{len(reports)} reports, reference has {len(expected['reports'])}"
    for got, want in zip(reports, expected["reports"]):
        for key, value in want.items():
            if got.get(key) != value:
                return f"{want['op']}.{key} = {got.get(key)!r}, reference {value!r}"
    return None


def _check_stabilized(spec: dict, payload: dict) -> str | None:
    n, k = spec["n"], spec["k"]
    y = [[Fraction(x) for x in row] for row in payload["stabilized"]["Y"]]
    if [row[k] for row in y] != [row[k] for row in spec["Y"]]:
        return "stabilization changed the child column"
    x = [row[:k] for row in y]
    if column_rank(integer_rows(x)) != k:
        return "stabilized parent block is not full rank"
    if payload["stabilized_status"]["verdict"] != "stable":
        return "stabilized verdict is not stable"
    beta = [Fraction(b) for b in payload["mle"]]
    if len(beta) != k:
        return "MLE has the wrong length"
    # Normal equations X^T X beta = X^T y, i.e. X^T (X beta - y) = 0.
    resid = [sum(xi * b for xi, b in zip(x[i], beta)) - y[i][k] for i in range(n)]
    if any(sum(x[i][j] * resid[i] for i in range(n)) for j in range(k)):
        return "MLE does not satisfy the normal equations"
    return None


def _check_strata(spec: dict, expected: dict, payload: dict) -> str | None:
    got = payload.get("strata", [])
    want = strata_for(spec)
    if len(got) != len(want):
        return f"{len(got)} strata, reference {len(want)}"
    for entry, (descriptor, mm, orbit, value) in zip(got, want):
        if (entry["descriptor"], entry["m"], entry["orbit_dim"], entry["value"]) != (
            descriptor, mm, orbit, value
        ):
            return f"stratum {entry['descriptor']} differs from the closed form"
    if payload.get("connectivity") != _connectivity(expected["d_min"]):
        return f"connectivity {payload.get('connectivity')!r} differs"
    if spec["family"] == "dag":
        want_thresholds = {"path_connected_from_n": 2 * spec["k"] - 1,
                           "simply_connected_from_n": 2 * spec["k"]}
        if payload.get("thresholds") != want_thresholds:
            return "DAG thresholds differ from 2k - 1 and 2k"
    return None


def check(cmd: dict, expected: dict, rc, payload: dict | None) -> str | None:
    """None when the command's exit code and output match the reference."""
    if rc != expected["rc"]:
        return f"exit code {rc!r}, reference {expected['rc']}"
    if payload is None:
        return "no JSON output"
    kind, spec = cmd["kind"], cmd["spec"]
    if kind == "verify":
        return _check_verify(expected, payload)
    if kind == "check":
        status = payload.get("status", {})
        if status.get("verdict") != expected["verdict"]:
            return f"verdict {status.get('verdict')!r}, reference {expected['verdict']!r}"
        if status.get("evidence") != expected["evidence"]:
            return f"evidence {status.get('evidence')!r}, reference {expected['evidence']!r}"
        if spec.get("stabilize"):
            return _check_stabilized(spec, payload)
        return None
    if payload.get("d_min") != expected["d_min"]:
        return f"d_min {payload.get('d_min')!r}, reference {expected['d_min']!r}"
    if spec.get("max_q") is not None:
        qs = [entry["q"] for entry in payload.get("homotopy", [])]
        if qs != list(range(spec["max_q"] + 1)):
            return "homotopy table does not cover q = 0..max_q"
    if kind == "analyze":
        return _check_strata(spec, expected, payload)
    return None
