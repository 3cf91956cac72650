"""Workload inputs: the suite matrix and the batch of one-shot commands.

Everything here is a pure function of the workload seed.  The library is
passed in as ``hn`` so that callers decide when it is imported, which is
what the set-up timing measures.
"""

import random

#: the suite/variant pairs, in the order ``scripts/run_suites.py`` runs them.
#: ``axioms`` under C is left out: its associativity check fails on about
#: one seed in 140 (an ``om`` letter shifts by ``level(zeta)``, and
#: ``f_c(b)`` can fall below the level of ``c``), and an operation that
#: fails on some seeds only cannot be counted the same way in every run.
MATRIX = (
    ("axioms", "AB"),
    ("conjugacy", "ABC"),
    ("nonequiprime", "B"),
    ("nonequiprime", "C"),
    ("equiprime", "A"),
    ("invariants", "BC"),
    ("leftdistrib", "ABC"),
)

#: (max_level, count) of one matrix pass; counts give passes of a few seconds
MATRIX_SIZES = {"matrix-deep": (4, 200), "matrix-default": (3, 250)}

#: count and depth of each ``check --json`` command in the one-shot batch
CHECK_COUNT = 20
CHECK_DEPTH = 3

#: the 800-level tower t[...t[t[1,2],2]...,2] under variant A
TOWER_LEVELS = 800


def matrix_pairs():
    return [(name, tag) for name, tags in MATRIX for tag in tags]


def suite_runner(hn, name, tag):
    """The public suite function for one pair, as a function of the config."""
    v = hn.Variant(tag)
    if name == "axioms":
        return lambda c: hn.check_nearring_axioms(v, c)
    if name == "conjugacy":
        return lambda c: hn.check_conjugacy(v, c)
    if name == "nonequiprime":
        return hn.witness_nonequiprime_B if tag == "B" else hn.witness_nonequiprime_C
    if name == "equiprime":
        return hn.check_equiprime_instances_A
    if name == "invariants":
        return lambda c: hn.check_invariant_subgroups(v, c)
    if name == "leftdistrib":
        return lambda c: hn.find_left_distrib_counterexample(v, c)
    raise ValueError(f"unknown suite {name!r}")


def expected_cases(name, count):
    """cases_run a passing report must carry; None means "at least 1"."""
    if name == "nonequiprime":
        return count + 1
    if name == "leftdistrib":
        return None
    return count


def report_problems(payload, name, tag, seed, count):
    """Why a decoded JSON report is not an acceptable pass, or []."""
    problems = []
    if not payload["passed"] or payload["failures"]:
        problems.append(f"did not pass: {payload['failures'][:1]}")
    want = expected_cases(name, count)
    if want is None:
        if payload["cases_run"] < 1 or not payload["witnesses"]:
            problems.append(f"found no witness in {payload['cases_run']} cases")
    elif payload["cases_run"] != want:
        problems.append(f"ran {payload['cases_run']} cases, expected {want}")
    if (payload["seed"], payload["count"], payload["variant"]) != (seed, count, tag):
        problems.append("report metadata does not match the run")
    return [f"{name}/{tag}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# The one-shot batch
# ---------------------------------------------------------------------------

def _scalar_text(k, atom):
    """``k*atom`` the way the canonical renderer writes it."""
    return atom if k == 1 else "-" + atom if k == -1 else f"{k}*{atom}"


def _free_word_text(rng):
    """A sum of signed basis letters and its free reduction, rendered the
    way the canonical renderer writes level-0 words: runs of one basis
    letter as ``k*pi(i)``, joined by `` + ``."""
    letters = []
    terms = []
    for _ in range(rng.randint(2, 7)):
        idx = rng.randint(0, 4)
        k = rng.choice((1, -1, 2, -2, 3))
        terms.append(_scalar_text(k, f"pi({idx})"))
        letters.extend([(idx, 1 if k > 0 else -1)] * abs(k))
    reduced = []
    for idx, s in letters:
        if reduced and reduced[-1] == (idx, -s):
            reduced.pop()
        else:
            reduced.append((idx, s))
    runs = []
    for idx, s in reduced:
        if runs and runs[-1][0] == idx:
            runs[-1][1] += s
        else:
            runs.append([idx, s])
    parts = [_scalar_text(k, f"pi({idx})") for idx, k in runs]
    return " + ".join(terms), " + ".join(parts) if parts else "0"


def _w_element(hn, rng, lvl):
    """An element of the subgroup W of variant B, built from positive-index
    basis letters only, hereditarily."""
    out = hn.ZERO
    if lvl == 0:
        while out is hn.ZERO:
            out = hn.make_pi([(rng.randint(1, 4), rng.choice((1, -1)))
                              for _ in range(rng.randint(1, 3))])
        return out
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            a = _w_element(hn, rng, lvl - 1)
            b = _w_element(hn, rng, rng.randint(0, lvl - 1))
            if a is b:
                b = hn.neg(a)
            out = hn.add(out, hn.make_stable(a, b, rng.choice((1, -1))))
        else:
            out = hn.add(out, _w_element(hn, rng, rng.randint(0, lvl - 1)))
    return out if out is not hn.ZERO else hn.make_pi([2])


def _distinct_nonzero(hn, cfg, pos, v):
    a = hn.sample_nonzero(cfg, pos, v)
    b = hn.sample_nonzero(cfg, pos + 1, v)
    if b is a:
        b = hn.identity_element(v) if a is not hn.identity_element(v) else hn.scale(2, a)
    return a, b


def cli_batch(hn, seed):
    """The one-shot command batch for ``seed``: a list of dicts with the
    ``kind`` of check, the command ``args`` and what the check needs.

    A ``member-h`` entry takes its expression from the output of the
    ``apply --zeta=om(0)`` entry just before it, so its last argument is
    filled in when the batch runs."""
    rng = random.Random(seed)
    cfg = hn.SampleConfig(seed=seed, max_level=3)
    render = hn.render
    batch = []

    def add(kind, args, **need):
        batch.append({"kind": kind, "args": args, **need})

    for tag in "ABC":
        v = hn.Variant(tag)
        for pos in range(8):
            x = hn.sample_element(cfg, pos, v)
            add("roundtrip", ["eval", "--variant", tag, render(x)], variant=tag, want=x)
        for j in range(4):
            a, b = _distinct_nonzero(hn, cfg, 100 + 2 * j, v)
            ta, tb = render(a), render(b)
            add("relation", ["eval", "--variant", tag, f"-t[{ta},{tb}] + {ta} + t[{ta},{tb}]"],
                variant=tag, want=b)
        for j in range(4):
            a = hn.sample_element(cfg, 200 + j, v)
            b = hn.sample_nonzero(cfg, 300 + j, v)
            add("product", ["mul", "--variant", tag, render(a), render(b)],
                variant=tag, zeta=b, want=a)
        for j in range(4):
            x = hn.sample_element(cfg, 400 + j, v)
            z = hn.sample_nonzero(cfg, 500 + j, v)
            add("apply", ["apply", "--variant", tag, f"--zeta={render(z)}", render(x)],
                variant=tag, zeta=z, want=x)
    for tag in "AC":
        for _ in range(5):
            m, n = rng.choice((-1, 1)) * rng.randint(1, 60), rng.choice((-1, 1)) * rng.randint(1, 60)
            add("intprod", ["mul", "--variant", tag, str(m), str(n)], text=str(m * n))
    for _ in range(8):
        expr, reduced = _free_word_text(rng)
        add("freeword", ["eval", "--variant", "B", expr], text=reduced)
    om0 = hn.make_omega(0, 1)
    vc = hn.Variant.C_INT_OMEGA_BASE
    for j in range(5):
        x = hn.sample_element(cfg, 600 + j, vc)
        add("apply", ["apply", "--variant", "C", "--zeta=om(0)", render(x)],
            variant="C", zeta=om0, want=x)
        add("member-h", ["member", "--variant", "C", "--subgroup", "H", None], text="true")
    for j in range(8):
        add("member-w", ["member", "--variant", "B", "--subgroup", "W",
                         render(_w_element(hn, rng, j % 3))], text="true")
    add("member-w", ["member", "--variant", "B", "--subgroup", "W", "pi(0)"], text="false")
    for name, tag in matrix_pairs():
        add("check", ["check", "--variant", tag, "--suite", name, "--seed", str(seed),
                      "--count", str(CHECK_COUNT), "--depth", str(CHECK_DEPTH)],
            suite=name, variant=tag)
    # known faults: inputs fixed, independent of the seed
    add("fault-check", ["check", "--variant", "A", "--suite", "axioms", "--count", "0"])
    add("fault-check", ["check", "--variant", "A", "--suite", "axioms", "--depth", "-1"])
    tower = "t[1,2]"
    for _ in range(TOWER_LEVELS - 1):
        tower = f"t[{tower},2]"
    add("fault-eval", ["eval", "--variant", "A", tower], variant="A")
    return batch
