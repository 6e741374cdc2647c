"""Seeded job lists for the benchmark workloads, each job with its reference.

A workload is a sequence of rounds.  A round is a fixed list of strata (job
kinds); each stratum takes its next member from a fixed, finite pool, in
an order whose every prefix is spread evenly over the pool and whose
starting point the seed picks.  Every seed therefore runs the same mix of
job kinds, on different but equally representative inputs, and the per-job
time distribution keeps its shape from seed to seed.  The pools are finite so that every job any seed can
produce has a golden record (see record_golden.py).

Each job is a dict with the CLI argv and a reference that does not come
from the code under test:

- ``status``: the exit statuses the job may return;
- ``expect``: machine-block keys and the values they must have;
- ``forbid``: a key prefix that must not occur (undecided census rows);
- ``verdicts``: how many verdicts the job produces (census tuples, else 1).

The references follow the paper: Koszul iff h != 0 with the degenerate
witness b[3,4] = 1; the length-3 diagonal Betti table when h != 0 and the
periodic one when h = 0; the regularity decision table; census totals
that are the sizes of the enumerated spaces.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# The pools are drawn once from this fixed seed; the run seed only picks
# where each pool's order starts.
POOL_SEED = 20181126

ELLIPTIC_G = range(-9, 10)
ELLIPTIC_H = [0] + list(range(1, 10))
# Job sizes: each job takes 0.3-0.8 s on a 2-vCPU host, so that a 30 s run
# holds 40-100 jobs.  The next sizes up (resolve --maxdeg 10, koszul and
# yoneda --homdeg 8, asreg --maxdeg 7) take 1-3 s per job, which leaves
# 11-25 jobs per run: too few for a tail percentile with ten samples
# above it, and too few calibration samples (see calibrate.py).
RESOLVE_HOMDEG, RESOLVE_MAXDEG = 6, 8
KOSZUL_HOMDEG = 6
YONEDA_HOMDEG = 6

REG_FIELD = "GF(32003)"
REG_MAXDEG = 6
REG_POOL_SLOW = 20  # per slow Ore stratum (about 0.5 s per job)
REG_POOL_FAST = 12  # per fast kind; the five fast kinds share one slot per round


def _kv(params):
    return ",".join(f"{k}={v}" for k, v in params.items())


# ---------------------------------------------------------------------------
# elliptic-q: Tgh(g, h) over Q
# ---------------------------------------------------------------------------


def _betti_ref(h, homdeg, maxdeg):
    """Betti triples of the minimal resolution of k over Tgh(g, h)."""
    betti = {(0, 0): 1, (1, 1): 3, (2, 2): 3}
    if h:
        betti[(3, 3)] = 1
    else:
        for i in range(3, homdeg + 1):
            betti.update({(i, j): 1 for j in (i, i + 1) if j <= maxdeg})
    return ";".join(f"{i}:{j}:{b}" for (i, j), b in betti.items())


def _tgh_job(kind, g, h):
    base = ["--field", "Q", "--family", "Tgh", "--params", f"g={g},h={h}"]
    if kind == "resolve":
        argv = ["resolve", *base, "--homdeg", str(RESOLVE_HOMDEG), "--maxdeg", str(RESOLVE_MAXDEG)]
        expect = {
            "betti": _betti_ref(h, RESOLVE_HOMDEG, RESOLVE_MAXDEG),
            "truncated": "False" if h else "True",
        }
    elif kind == "koszul":
        argv = ["koszul", *base, "--homdeg", str(KOSZUL_HOMDEG)]
        if h:
            expect = {"verdict": "koszul_to", "convolution": "True"}
        else:
            expect = {"verdict": "not_koszul", "witness": "b[3,4]=1"}
    else:
        assert kind == "yoneda" and h == 0
        argv = ["yoneda", *base, "--homdeg", str(YONEDA_HOMDEG)]
        expect = {"branch": "degenerate", "ok": "True", "bigraded_match": "True", "diagonal_ok": "True"}
    return {"argv": argv, "ref": {"status": [0], "expect": expect, "verdicts": 1}}


def _elliptic_pools():
    nondeg = [(g, h) for g in ELLIPTIC_G for h in ELLIPTIC_H if h]
    deg = [(g, 0) for g in ELLIPTIC_G]
    return {
        "resolve_h": [_tgh_job("resolve", g, h) for g, h in nondeg],
        "resolve_0": [_tgh_job("resolve", g, h) for g, h in deg],
        "koszul_h": [_tgh_job("koszul", g, h) for g, h in nondeg],
        "koszul_0": [_tgh_job("koszul", g, h) for g, h in deg],
        "yoneda_0": [_tgh_job("yoneda", g, h) for g, h in deg],
    }


# Sorted by cost, a round is koszul_0 and yoneda_0 (about 0.3 s), four
# koszul_h (0.4 s), resolve_0 (0.65 s) and two resolve_h (0.8 s).  The
# median job is then a koszul_h job and the tail job of a 30 s run (p80 to
# p88) a resolve_h job, for every seed.
ELLIPTIC_ROUND = [
    "koszul_h", "resolve_h", "koszul_h", "koszul_0", "koszul_h",
    "yoneda_0", "resolve_0", "koszul_h", "resolve_h",
]


# ---------------------------------------------------------------------------
# regularity-gf: asreg --evidence over GF(32003)
# ---------------------------------------------------------------------------


def _asreg_job(params, kind, regular):
    argv = ["asreg", "--field", REG_FIELD, "--family", "T", "--defaults-zero",
            "--params", _kv(params), "--evidence", "--maxdeg", str(REG_MAXDEG)]
    expect = {"type": kind, "decision": str(regular)}
    if regular:
        expect["gorenstein_clean"] = "True"
    # a reducible verdict rests on the f_n scan, which stops at its bound
    # over GF(32003) unless the orbit closes first: exit 3 is legitimate
    status = [0, 3] if kind == "reducible" else [0]
    return {"argv": argv, "ref": {"status": status, "expect": expect, "verdicts": 1}}


def _ore_job(params):
    # Ore type: regular iff det [[d, e], [D, E]] = d E - e D != 0 (here e = D = 0)
    return _asreg_job(params, "ore", params["d"] * params["E"] != 0)


def _elliptic_h(a, B, c, C):
    """h of the renormalized elliptic form (a, B, c, C with f = 1, d = E = -1, A = 1)."""
    return c - (a - 1) * (C + a - 1)


def _elliptic_job(a, B, c, C):
    params = dict(f=1, A=1, d=-1, E=-1, a=a, b=(1 - a) * (2 - B), B=B, c=c, C=C)
    return _asreg_job(params, "elliptic", _elliptic_h(a, B, c, C) != 0)


def _regularity_pools():
    """Criterion-10 style draws with coefficients in [-5, 5] \\ {0}.

    Zero coefficients are left out so that every member of a stratum has
    the same rewriting structure and about the same cost; otherwise a seed
    that happens to draw zeros would move the median job time.
    """
    rng = random.Random(POOL_SEED)
    nz = lambda: rng.choice([v for v in range(-5, 6) if v])
    not01 = lambda: rng.choice([v for v in range(-5, 6) if v not in (0, 1)])

    def unique(make, n):
        out, seen = [], set()
        while len(out) < n:
            job = make()
            key = " ".join(job["argv"])
            if key not in seen:
                seen.add(key)
                out.append(job)
        return out

    def ore_generic():
        d, E, B, C = not01(), not01(), nz(), nz()
        a, b = Fraction(B * (d - 1), E - 1), Fraction(C * (d - 1), E - 1)
        return _ore_job(dict(d=d, E=E, B=B, C=C, a=a, b=b))

    def elliptic_regular():
        while True:
            a, B, c, C = nz(), nz(), nz(), nz()
            if _elliptic_h(a, B, c, C) != 0:
                return _elliptic_job(a, B, c, C)

    def nonregular():
        kind = rng.randrange(3)
        if kind == 0:  # Ore with a singular degree-1 endomorphism: zero divisor
            return _ore_job(dict(d=1, E=0, B=nz()))
        if kind == 1:  # reducible with a + d = 0: factorization witness
            a = rng.choice([2, 3, 4, 5])
            return _asreg_job(dict(f=1, a=a, d=-a, E=1, b=nz(), c=nz()), "reducible", False)
        while True:  # elliptic with h = 0
            a, B, C = nz(), nz(), nz()
            c = (a - 1) * (C + a - 1)
            if c:
                return _elliptic_job(a, B, c, C)

    return {
        "ore_generic": unique(ore_generic, REG_POOL_SLOW),
        "ore_E1": unique(lambda: _ore_job(dict(d=not01(), E=1, a=nz(), b=nz(), c=nz())), REG_POOL_SLOW),
        # the fast kinds share one slot per round, in seeded order
        "fast": (
            unique(lambda: _ore_job(dict(d=1, E=1, a=nz(), b=nz(), B=nz())), REG_POOL_FAST)
            + unique(lambda: _ore_job(dict(d=1, E=not01(), B=nz())), REG_POOL_FAST)
            # reducible case ii: e = C = B = 0, E = 1; regular iff E != 0 and a + d != 0
            + unique(lambda: _asreg_job(dict(f=1, a=2, d=3, E=1, b=nz(), c=nz()), "reducible", True),
                     REG_POOL_FAST)
            + unique(elliptic_regular, REG_POOL_FAST)
            + unique(nonregular, REG_POOL_FAST)
        ),
    }


# Nine slow Ore jobs (1.iv and E = 1) and one fast job per round, so that
# the median job and the tail job are slow Ore jobs for every seed.  The
# fast slot cycles through Ore 1.i, Ore with d = 1, reducible-regular,
# elliptic h != 0 and non-regular tuples.
REGULARITY_ROUND = [
    "ore_generic", "ore_E1", "ore_generic", "ore_E1", "fast",
    "ore_generic", "ore_E1", "ore_generic", "ore_E1", "ore_generic",
]


# ---------------------------------------------------------------------------
# census-gf: scan over GF(p)
# ---------------------------------------------------------------------------


def _scan_job(p, family, ranges, total):
    argv = ["scan", "--field", f"GF({p})", "--family", family, "--workers", "1"]
    if ranges:
        argv += ["--ranges", _kv(ranges)]
    ref = {"status": [0], "expect": {"total": str(total)}, "forbid": "count_unknown", "verdicts": total}
    return {"argv": argv, "ref": ref}


def _census_pools():
    # Normalized f = 1 space over GF(p): e = 1 has a, b, c, d, A, B, C free
    # (E = d); e = 0, A = 1 has a, b, c, d, B, C, E free.  Fixing three of
    # the seven leaves p^4 tuples, fixing one leaves p^6.
    gf5 = [dict(a=a, b=b, c=c) for a in range(5) for b in range(5) for c in range(5)]
    t3 = []
    for e, free in ((1, "a b c d A B C"), (0, "a b c d B C E")):
        for name in free.split():
            for v in range(3):
                fixed = {"e": e, name: v} if e else {"e": 0, "A": 1, name: v}
                t3.append(_scan_job(3, "T", fixed, 3**6))
    return {
        "t5_e1": [_scan_job(5, "T", {"e": 1, **fx}, 5**4) for fx in gf5],
        "t5_e0": [_scan_job(5, "T", {"e": 0, "A": 1, **fx}, 5**4) for fx in gf5],
        "t3": t3,
        "c13": [_scan_job(13, "C", None, 13**3)],
        "c11": [_scan_job(11, "C", None, 11**3)],
    }


# Four GF(5) slices of 625 tuples, one GF(3) slice of 729 tuples and the
# two largest C cubes: every job takes 0.2-0.45 s, and the median and the
# tail job are T slices for every seed.
CENSUS_ROUND = ["t5_e1", "t5_e0", "t3", "c13", "t5_e1", "t5_e0", "c11"]


def census_full_t_job(p):
    """The whole normalized T space over GF(p): 2 p^7 + 2 p^6 tuples."""
    return _scan_job(p, "T", None, 2 * p**7 + 2 * p**6)


WORKLOADS = {
    "elliptic-q": (_elliptic_pools, ELLIPTIC_ROUND),
    "regularity-gf": (_regularity_pools, REGULARITY_ROUND),
    "census-gf": (_census_pools, CENSUS_ROUND),
}


def pool_jobs(workload):
    """Every job the workload can produce, for recording golden outputs."""
    pools, _ = WORKLOADS[workload]
    return [job for pool in pools().values() for job in pool]


def _spread_order(n, start):
    """Permutation of range(n) by a stride near n / golden ratio.

    Every prefix is spread evenly over the pool's order, so a run that
    uses a few dozen members of a pool sees all of its parameter range.
    """
    stride = max(1, round(n * 2 / (1 + math.sqrt(5))))
    while math.gcd(stride, n) != 1:
        stride += 1
    return [(start + i * stride) % n for i in range(n)]


def rounds(workload, seed, count):
    """The first `count` rounds of the workload for this seed."""
    make_pools, strata = WORKLOADS[workload]
    pools = make_pools()
    rng = random.Random(f"{workload}:{seed}")
    queues = {name: [] for name in pools}
    out = []
    for _ in range(count):
        batch = []
        for name in strata:
            pool = pools[name]
            if not queues[name]:
                queues[name] = [pool[k] for k in reversed(_spread_order(len(pool), rng.randrange(len(pool))))]
            batch.append(queues[name].pop())
        out.append(batch)
    return out
