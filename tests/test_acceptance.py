"""Acceptance criteria, one test per criterion, each printing a PASS or
FAIL line.  Counts and tolerances are fixed here; everything is exact
(symbolic), so tolerance means zero failures."""

from hnn_nearring import (
    ZERO,
    SampleConfig,
    Variant,
    add,
    check_conjugacy,
    check_equiprime_instances_A,
    check_invariant_subgroups,
    check_nearring_axioms,
    conjugator,
    f_eval,
    find_left_distrib_counterexample,
    level,
    make_int,
    make_omega,
    make_pi,
    make_stable,
    mu,
    mul,
    neg,
    parse_element,
    power_of,
    preimage,
    render,
    renormalize,
    sample_element,
    sample_nonzero,
    scale,
    witness_nonequiprime_B,
    witness_nonequiprime_C,
    write_report,
)

A = Variant.A_INT_BASE
B = Variant.B_FREE_BASE
C = Variant.C_INT_OMEGA_BASE
VARIANTS = (A, B, C)


def _emit(criterion, label, ok, detail=""):
    print(f"[acceptance {criterion}] {label}: {'PASS' if ok else 'FAIL'}{detail}")


def _repeated(k, a):
    out = ZERO
    step = a if k >= 0 else neg(a)
    for _ in range(abs(k)):
        out = add(out, step)
    return out


def test_criterion_1_nearring_axioms():
    """500 sampled triples per variant: right distributivity, product
    associativity, identity, zero symmetry."""
    cfg = SampleConfig(seed=7, count=500)
    failures = 0
    for variant in VARIANTS:
        rep = check_nearring_axioms(variant, cfg)
        failures += len(rep.failures)
        assert rep.cases_run == 500
    _emit(1, "nearring axioms, 500 triples for A, B, C", failures == 0,
          f" (failures={failures})")
    assert failures == 0


def test_criterion_2_britton_engine():
    """1000-case fuzz: renormalization idempotence, additive
    associativity, inverse law, and the letter relation with powers
    |k| <= 5 computed by repeated addition."""
    cfg = SampleConfig(seed=101, count=0)
    failures = 0
    cases = 0
    per_variant = 334
    for variant in VARIANTS:
        for case in range(per_variant):
            if cases >= 1000:
                break
            cases += 1
            a = sample_element(cfg, 4 * case, variant)
            b = sample_element(cfg, 4 * case + 1, variant)
            c = sample_element(cfg, 4 * case + 2, variant)
            if renormalize(a) is not a:
                failures += 1
            if add(add(a, b), c) is not add(a, add(b, c)):
                failures += 1
            if add(a, neg(a)) is not ZERO:
                failures += 1
            alpha = sample_nonzero(cfg, 4 * case + 2, variant)
            beta = sample_nonzero(cfg, 4 * case + 3, variant)
            if alpha is beta:
                beta = neg(alpha)
            t = conjugator(alpha, beta)
            for k in range(-5, 6):
                lhs = add(add(neg(t), _repeated(k, alpha)), t)
                if lhs is not _repeated(k, beta):
                    failures += 1
    _emit(2, f"word engine fuzz, {cases} cases", failures == 0,
          f" (failures={failures})")
    assert cases == 1000
    assert failures == 0


def test_criterion_3_power_oracle():
    """power_of agrees with brute-force repeated addition over
    k in [-6, 6] on 500 pairs, 100 of them constructed positives."""
    cfg = SampleConfig(seed=33, count=0)
    disagreements = 0
    pairs = 0
    for variant in VARIANTS:
        budget = 167 if variant is not C else 166
        for case in range(budget):
            pairs += 1
            alpha = sample_nonzero(cfg, 2 * case, variant)
            if case % 5 == 0:
                k0 = (case // 5) % 13 - 6
                g = _repeated(k0, alpha)
            else:
                g = sample_element(cfg, 2 * case + 1, variant)
            expected = None
            for k in range(-6, 7):
                if _repeated(k, alpha) is g:
                    expected = k
                    break
            got = power_of(g, alpha)
            if got == expected:
                continue
            if expected is None and got is not None and abs(got) > 6 \
                    and scale(got, alpha) is g:
                continue  # beyond the brute-force window but verified exact
            disagreements += 1
    _emit(3, f"power membership vs brute force, {pairs} pairs",
          disagreements == 0, f" (disagreements={disagreements})")
    assert pairs == 500
    assert disagreements == 0


def test_criterion_4_conjugacy():
    """100 sampled distinct nonzero pairs per variant satisfy the letter
    relation exactly."""
    cfg = SampleConfig(seed=7, count=100)
    failures = 0
    for variant in VARIANTS:
        rep = check_conjugacy(variant, cfg)
        failures += len(rep.failures)
        assert rep.cases_run == 100
    _emit(4, "universal conjugacy, 100 pairs per variant", failures == 0,
          f" (failures={failures})")
    assert failures == 0


def test_criterion_5_nonequiprime_C():
    """The central-generator witness: om(0)*tau*2 = om(0)*tau*3 for all
    sampled tau plus tau = 0, with the index-shift law and integer-index
    level preservation checked alongside."""
    cfg = SampleConfig(seed=7, count=200)
    rep = witness_nonequiprime_C(cfg)
    failures = len(rep.failures)
    assert rep.cases_run == 201
    # index-shift table: f_zeta(om(j)) = om(level(zeta) + j)
    shift_failures = 0
    for case in range(50):
        zeta = sample_nonzero(cfg, case, C)
        for j in range(5):
            if f_eval(zeta, make_omega(j, 1)) is not make_omega(level(zeta) + j, 1):
                shift_failures += 1
    # level preservation under integer indices outside {0, 1}
    layer_failures = 0
    ints = [-3, -2, -1, 2, 3, 4]
    for case in range(200):
        lam = sample_nonzero(cfg, 1000 + case, C)
        d = make_int(ints[case % len(ints)], C)
        if level(f_eval(d, lam)) != level(lam):
            layer_failures += 1
    ok = failures == 0 and shift_failures == 0 and layer_failures == 0
    _emit(5, "non-equiprime witness (central variant) + omega laws", ok,
          f" (witness={failures}, shift={shift_failures}, layer={layer_failures})")
    assert ok


def test_criterion_6_nonequiprime_B():
    """The free-base witness: pi(1)*x*pi(1) = pi(1)*x*2pi(1) for all
    sampled x plus x = 0, with the basis-offset grid and additivity."""
    cfg = SampleConfig(seed=7, count=200)
    rep = witness_nonequiprime_B(cfg)
    failures = len(rep.failures)
    assert rep.cases_run == 201
    grid_failures = 0
    for k in range(-3, 4):
        if k == 0:
            continue
        for i in range(6):
            if mu(scale(k, make_pi([i]))) != i:
                grid_failures += 1
    add_failures = 0
    for case in range(200):
        g = sample_nonzero(cfg, 2 * case, B)
        x = sample_nonzero(cfg, 2 * case + 1, B)
        if mu(f_eval(g, x)) != mu(g) + mu(x):
            add_failures += 1
    ok = failures == 0 and grid_failures == 0 and add_failures == 0
    _emit(6, "non-equiprime witness (free base) + offset laws", ok,
          f" (witness={failures}, grid={grid_failures}, additivity={add_failures})")
    assert ok


def test_criterion_7_equiprime_instances_A():
    """x = t[1,-1] distinguishes sampled distinct pairs against nonzero a,
    and t[1,-1]*b is exactly t[b,-b] on the small integer grid."""
    cfg = SampleConfig(seed=7, count=200)
    rep = check_equiprime_instances_A(cfg)
    failures = len(rep.failures)
    assert rep.cases_run == 200
    one = make_int(1, A)
    x = make_stable(one, neg(one))
    grid_failures = 0
    for n in range(-3, 4):
        if n == 0:
            continue
        b = make_int(n, A)
        if mul(x, b) is not make_stable(b, neg(b)):
            grid_failures += 1
    ok = failures == 0 and grid_failures == 0
    _emit(7, "equiprime instances (integer base)", ok,
          f" (witness={failures}, grid={grid_failures})")
    assert ok


def test_criterion_8_invariant_subgroups():
    """Closure of the two invariant subgroups under products from both
    sides, 200 samples each side, plus 200 inverse-image round trips."""
    cfg = SampleConfig(seed=7, count=200)
    rep_b = check_invariant_subgroups(B, cfg)
    rep_c = check_invariant_subgroups(C, cfg)
    escapes = len(rep_b.failures) + len(rep_c.failures)
    assert rep_b.cases_run == 200 and rep_c.cases_run == 200
    om0 = make_omega(0, 1)
    trip_failures = 0
    for case in range(200):
        y = sample_element(cfg, case, C)
        if preimage(om0, f_eval(om0, y)) is not y:
            trip_failures += 1
    ok = escapes == 0 and trip_failures == 0
    _emit(8, "invariant subgroup closure + inverse-image round trip", ok,
          f" (escapes={escapes}, round_trip={trip_failures})")
    assert ok


def test_criterion_9_left_distributivity_fails():
    """A left-distributivity counterexample turns up within 1000 samples
    for each variant; the structures are nearrings, not rings."""
    ok = True
    spent = {}
    for variant in VARIANTS:
        rep = find_left_distrib_counterexample(variant, SampleConfig(seed=7, count=1000))
        spent[variant.value] = rep.cases_run
        ok = ok and rep.passed
    _emit(9, "left distributivity counterexamples", ok, f" (cases={spent})")
    assert ok


def test_criterion_10_determinism():
    """Byte-identical JSON reports under identical seeds; parse/render
    round trip on 500 sampled elements."""
    cfg = SampleConfig(seed=7, count=120)
    stable = True
    for make in (lambda: check_nearring_axioms(B, cfg),
                 lambda: witness_nonequiprime_C(cfg),
                 lambda: check_invariant_subgroups(C, cfg)):
        if write_report(make()) != write_report(make()):
            stable = False
    trip_failures = 0
    total = 0
    for variant in VARIANTS:
        budget = 167 if variant is not C else 166
        for pos in range(budget):
            total += 1
            e = sample_element(cfg, pos, variant)
            if parse_element(render(e), variant) is not e:
                trip_failures += 1
    ok = stable and trip_failures == 0
    _emit(10, "report determinism + parse/render round trip", ok,
          f" (byte_stable={stable}, round_trip_failures={trip_failures}/{total})")
    assert total == 500
    assert ok
