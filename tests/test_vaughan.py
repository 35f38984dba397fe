"""The four-term identity, its block decomposition, and the prime-power gap."""

import dataclasses
import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kloosterlab import arith, bilinear, expsums, vaughan
from kloosterlab.accumulate import ROUND_EPS, exact_sum
from kloosterlab.arith import build_multiplicative_tables, prime_window
from kloosterlab.bilinear import bilinear_sum, dyadic_window
from kloosterlab.errors import CapacityError, ConsistencyError
from kloosterlab.expsums import ExpSumQuery, inverse_phase_sum, prime_sum, window_sum
from kloosterlab.vaughan import (
    KIND_TYPE1,
    KIND_TYPE2,
    VaughanParams,
    _has_support,
    compare_decomposition,
    component_value,
    decompose,
    decomposition_limit,
    evaluate_decomposition,
    prime_power_gap,
    reconstruct_lambda,
    validate_decomposition,
)

#: Property tests draw the same examples on every run and stay quick.
_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def test_params_validation():
    VaughanParams(x=100.0, U=4.0)
    with pytest.raises(ValueError):
        VaughanParams(x=1.0, U=1.0)
    with pytest.raises(ValueError):
        VaughanParams(x=100.0, U=0.5)
    with pytest.raises(ValueError):
        VaughanParams(x=100.0, U=10.0)  # above x^(1/3)


def test_reconstruct_lambda_equals_von_mangoldt(tables):
    for n in range(2, 400):
        for U in (1.0, 2.0, 3.5, n ** (1 / 3)):
            got = reconstruct_lambda(n, U)
            assert abs(got - tables.lam(n)) <= 1e-9, (n, U)
    assert reconstruct_lambda(1, 2.0) == 0.0


@_PROPERTY
@given(n=st.integers(1, 10 ** 7), cut=st.floats(0.0, 1.0))
@example(n=1, cut=0.0)
@example(n=2 ** 23, cut=1.0)
@example(n=9999991, cut=0.5)
@example(n=3 ** 14, cut=0.0)
@example(n=2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, cut=1.0)
def test_reconstruct_lambda_beyond_any_table(n, cut):
    # n past the session's tables, U anywhere in [1, n^(1/3)]; Lambda(n)
    # read off the window [n, n + 1): log n for a prime, log p for p**j
    U = 1.0 + cut * (n ** (1 / 3) - 1.0)
    window = prime_window(n, n + 1)
    powers, bases = window.prime_powers
    want = math.log(n) if len(window.primes) else math.log(bases[0]) if len(powers) else 0.0
    assert abs(reconstruct_lambda(n, U) - want) <= 1e-9, (n, U)


def test_decomposition_structure():
    params = VaughanParams(x=600.0, U=600 ** (1 / 3))
    decomp = decompose(params)
    validate_decomposition(decomp)
    assert decomp.type1_count > 0
    assert decomp.type2_count > 0
    x, U = params.x, params.U
    for comp in decomp.components:
        assert comp.restrict == x
        if comp.kind == KIND_TYPE2:
            # both coefficient sides bounded, block inside [U, x/U]
            assert U / (1 + 1e-9) <= comp.L <= x / U * (1 + 1e-9)
            assert comp.beta is None or np.max(np.abs(comp.beta)) <= 1 + 1e-12
        else:
            assert comp.kind == KIND_TYPE1
            assert comp.L < U


def test_validation_refuses_a_shared_array_past_one():
    # blocks share coefficient arrays, and validation checks each one once,
    # at the first block that holds it: a bad shared array is refused there
    decomp = decompose(VaughanParams(x=600.0, U=600 ** (1 / 3)))
    holders = {}
    for i, c in enumerate(decomp.components):
        if c.beta is not None:
            holders.setdefault(id(c.beta), []).append(i)
    shared = max(holders.values(), key=len)
    assert len(shared) > 1
    bad = decomp.components[shared[0]].beta * 1.5
    for holders in (shared, shared[1:2]):
        # every holder sharing one bad array, or a later holder alone
        # given a bad copy of the array its neighbours share
        comps = tuple(dataclasses.replace(c, beta=bad) if i in holders else c
                      for i, c in enumerate(decomp.components))
        with pytest.raises(ConsistencyError, match=f"component {holders[0]}: beta not normalized"):
            validate_decomposition(dataclasses.replace(decomp, components=comps))


def test_decomposition_is_deterministic():
    params = VaughanParams(x=300.0, U=5.0)
    d1 = decompose(params)
    d2 = decompose(params)
    assert len(d1.components) == len(d2.components)
    t1, _ = evaluate_decomposition(d1, 2, 11)
    t2, _ = evaluate_decomposition(d2, 2, 11)
    assert t1 == t2


@pytest.mark.parametrize("a,q,x,U", [
    (1, 7, 100.0, 4.0),
    (2, 11, 300.0, 300 ** (1 / 3)),
    (3, 12, 500.0, 2.0),
    (5, 9, 800.0, 8.0),
    (0, 7, 200.0, 5.0),     # zero twist collapses to weighted unit counts
    (2, 4, 150.0, 5.0),     # twist sharing a factor with the modulus
])
def test_decomposition_matches_direct_sum(a, q, x, U):
    chk = compare_decomposition(VaughanParams(x=x, U=U), a, q)
    assert chk.rel_error <= 1e-9, (a, q, x, U, chk.rel_error)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(x=st.floats(8.0, 700.0), cut=st.floats(0.0, 1.0), a=st.integers(0, 10 ** 6),
       q=st.integers(2, 500))
def test_decomposition_matches_reconstructed_window_sum(x, cut, a, q, tables):
    # the blocks against sum over x <= n < 2x of reconstruct_lambda(n, U) e(a inv(n) / q)
    U = 1.0 + cut * (x ** (1 / 3) - 1.0)
    a %= q
    decomp = decompose(VaughanParams(x=x, U=U))
    total, _ = evaluate_decomposition(decomp, a, q)
    ns = np.arange(math.ceil(x), math.ceil(2 * x))
    weights = np.array([reconstruct_lambda(int(n), U) for n in ns])
    window = inverse_phase_sum(ns, a, q, weights=weights)
    # each side's rounding envelope: the block sums with their coefficients
    # (a log, a product and the block scale per term) and the final sum,
    # the window sum, and the reconstructed weights against log p, which is
    # itself within one rounding of the exact Lambda(n)
    u = 2.0 ** -53
    bound = ROUND_EPS * abs(total) + window.accumulation_error_bound
    for comp in decomp.components:
        v = bilinear_sum(comp.to_spec(a, q))
        bound += abs(comp.scale) * (v.accumulation_error_bound + 4 * u * v.weight_sum + 2 * u * abs(v.value))
    lam = np.array([tables.lam(int(n)) for n in ns])
    bound += exact_sum(np.abs(weights - lam)) + u * exact_sum(lam)
    assert abs(total - window.value) <= bound


def test_component_values_sum_to_total():
    params = VaughanParams(x=200.0, U=4.0)
    decomp = decompose(params)
    total, vals = evaluate_decomposition(decomp, 1, 7)
    assert len(vals) == len(decomp.components)
    assert abs(total - sum(vals)) < 1e-9


def test_truncation_cases_cover_identity():
    # U = 1 leaves only the a3 and a4 ranges; U = x^(1/3) is the balanced cut
    for U in (1.0, 2.0):
        chk = compare_decomposition(VaughanParams(x=64.0, U=U), 1, 5)
        assert chk.rel_error <= 1e-9


def test_prime_power_gap_window():
    gap = prime_power_gap(1, 5, 50.0)
    # [50, 100) holds exactly 64 = 2^6 and 81 = 3^4
    assert gap.prime_power_terms == 2
    assert gap.envelope == pytest.approx(math.log(2) + math.log(3), abs=1e-12)
    assert gap.gap <= gap.envelope + 1e-12


def test_prime_power_gap_envelope_bound():
    for x in (50.0, 200.0, 1000.0):
        for (a, q) in [(1, 5), (3, 14)]:
            gap = prime_power_gap(a, q, x)
            assert gap.gap <= gap.envelope + 1e-12
            assert gap.envelope <= 2 * math.sqrt(2 * x) * math.log(2 * x)


def test_direct_gap_equals_weighted_difference(tables):
    a, q, x = 2, 9, 120.0
    gap = prime_power_gap(a, q, x)
    lam = prime_sum(ExpSumQuery(a=a, q=q, x=x), weight="von_mangoldt")
    pt = tables.prime_table
    primes = pt.primes_between(x, 2 * x)
    logs = np.log(primes.astype(float))
    from kloosterlab.expsums import inverse_phase_sum

    direct = inverse_phase_sum(primes, a, q, weights=logs)
    assert gap.gap == pytest.approx(abs(lam.value - direct.value), abs=0)


def _per_l_has_support(ls, l_ok, ms, m_ok, x):
    """_has_support as the former loop over l, with one product mask per l."""
    if not l_ok.any() or not m_ok.any():
        return False
    msub = ms[m_ok]
    for l in ls[l_ok]:
        prod = int(l) * msub
        if bool(((prod >= x) & (prod < 2 * x)).any()):
            return True
    return False


@st.composite
def _supports(draw):
    """Consecutive l and m blocks with masks, and a window start x that is
    a product l*m, half of one, a float neighbour, or a non-integer."""
    scale = draw(st.sampled_from([10, 10 ** 4, 10 ** 8, 2 ** 30]))
    l0, m0 = draw(st.integers(1, scale)), draw(st.integers(1, scale))
    ls = np.arange(l0, l0 + draw(st.integers(0, 10)), dtype=np.int64)
    ms = np.arange(m0, m0 + draw(st.integers(0, 30)), dtype=np.int64)
    l_ok = np.array(draw(st.lists(st.booleans(), min_size=len(ls), max_size=len(ls))), dtype=bool)
    m_ok = np.array(draw(st.lists(st.booleans(), min_size=len(ms), max_size=len(ms))), dtype=bool)
    if len(ls) and len(ms) and draw(st.booleans()):
        p = int(draw(st.sampled_from(ls.tolist()))) * int(draw(st.sampled_from(ms.tolist())))
        x = draw(st.sampled_from([
            p, float(p), p / 2,
            math.nextafter(float(p), -math.inf), math.nextafter(float(p), math.inf),
        ]))
    else:
        x = draw(st.floats(0.5, 4.0 * scale * scale, allow_nan=False))
    return ls, l_ok, ms, m_ok, x


@_PROPERTY
@given(_supports())
# every m kept, then every m but 19 kept, where 4 * 19 = 76 is the only product in [73, 146)
@example((np.arange(4, 8), np.ones(4, bool), np.arange(10, 20), np.ones(10, bool), 70.0))
@example((np.array([4]), np.ones(1, bool), np.arange(10, 20), np.arange(10, 20) != 19, 73.0))
def test_has_support_equals_per_l_twin(case):
    assert _has_support(*case) == _per_l_has_support(*case)


def test_has_support_edges():
    ls, ms = np.arange(4, 8), np.arange(10, 20)
    every_l, every_m = np.ones(4, bool), np.ones(10, bool)
    assert _has_support(ls, every_l, ms, every_m, 70.0)
    # 7 * 19 = 133 is the largest product, and 40 = 4 * 10 the smallest
    assert not _has_support(ls, every_l, ms, every_m, 133.5)
    assert _has_support(ls, every_l, ms, every_m, 133)
    assert not _has_support(ls, every_l, ms, every_m, 20)
    assert _has_support(ls, every_l, ms, every_m, 20.5)
    only_19 = np.arange(10, 20) == 19
    assert not _has_support(ls, ls == 4, ms, only_19, 80)  # 4 * 19 = 76 < 80
    assert not _has_support(ls, ~every_l, ms, every_m, 70.0)
    assert not _has_support(ls, every_l, ms[:0], every_m[:0], 70.0)


@pytest.mark.parametrize("l, m, x, want", [
    # past 2^53 the quotient x / l rounds across m: the products decide
    (738360466, 758650494, 5.6015753228097024e17, False),
    (60075810, 493073047, 29621762687693070, True),
])
def test_has_support_past_2_53(l, m, x, want):
    ls, ms, one = np.array([l], dtype=np.int64), np.array([m], dtype=np.int64), np.ones(1, bool)
    assert _has_support(ls, one, ms, one, x) is want
    assert _per_l_has_support(ls, one, ms, one, x) is want


def _components_digest(decomp):
    """SHA-256 of every component's kind, sign, scale, the repr of its bounds
    (so an int bound that turns float shows) and its coefficient bytes."""
    h = hashlib.sha256()
    for c in decomp.components:
        h.update(f"{c.kind} {c.sign} {c.scale.hex()} {c.L!r} {c.M!r} {c.restrict!r}".encode())
        for arr in (c.alpha, c.beta):
            h.update(b"None" if arr is None else arr.dtype.str.encode() + arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("x, U, count, digest", [
    # recorded from the three-loop decomposition that preceded the one block rule
    (200, 200 ** (1 / 3), 29, "55d96bad3d642fe39e269c92be9b54ec7d2d76cc96c3ef77876fa49e4cee2292"),
    (200, 5, 24, "341b7d3de513c4728f674da9c3a4d0159b5b3cad3eab376c788d7e9e57f066cc"),
    (1000, 10, 41, "247f40d18ad6ed49b0ab345d5db698ad9e5a2dcba727b96eb95c4fa077e15721"),
    (10 ** 5, 20, 49, "7909c4a6f263dcbd1fa606cfea7a6ca7efa288d13e8eebb18dc27098b0ecfa88"),
    (10 ** 5, 10 ** (5 / 3), 65, "3092f7d8418526011e37f4bde46463b849ad027b6b4e90ee3f55089fda7a572f"),
    (3 * 10 ** 5, 30, 66, "f8f26c14e27718dbc054ee12708f5b60300807f2653491044f44b25ce9fdcee9"),
    (20000, 1, 41, "5533729be5c43e82345b816e96b59f5418637a0351cb2baecc9c9ea744acefd1"),
    (10 ** 6, 100, 77, "75bc55fda2c47db0533be8b6bd9c96d7bed992f6fd2f7913e175c48daa55e0f9"),
    (777.5, 3.3, 26, "cad4fbb032d2db5148de1fc607ee8bc5fafef3179a480453b130d1988b8c0481"),
    (5000, 17, 46, "c006eb409c3c2542b5e0be5a8ff401d3510fc983c6cc1688227344e3d65b8284"),
])
def test_decomposition_bytes_are_pinned(x, U, count, digest):
    decomp = decompose(VaughanParams(x, U))
    assert len(decomp.components) == count
    assert _components_digest(decomp) == digest


@pytest.mark.parametrize("x, U", [(10 ** 6, 100), (20000, 1), (777.5, 3.3), (5000, 17)])
def test_decomposition_reads_tables_only_to_its_limit(monkeypatch, x, U):
    # one build per call, to the limit, whose last entry is read: tables one
    # entry short are indexed past their end
    params = VaughanParams(x, U)
    limit = decomposition_limit(params)
    assert limit < max(2 * x, 4 * x / U)
    limits = []
    monkeypatch.setattr(vaughan, "build_multiplicative_tables",
                        lambda n: limits.append(n) or build_multiplicative_tables(n))
    decompose(params)
    compare_decomposition(params, 1, 7)
    assert limits == [limit, limit]
    monkeypatch.setattr(vaughan, "build_multiplicative_tables", lambda n: build_multiplicative_tables(n - 1))
    with pytest.raises(IndexError):
        decompose(params)


def test_decomposition_keeps_no_tables_between_calls(monkeypatch):
    built = []
    monkeypatch.setattr(vaughan, "build_multiplicative_tables",
                        lambda n: built.append(weakref.ref(t := build_multiplicative_tables(n))) or t)
    params = VaughanParams(10 ** 5, 20)
    compare_decomposition(params, 1, 7)
    decomp = decompose(params)
    assert len(decomp.components) == 49
    assert len(built) == 2
    assert all(ref() is None for ref in built)


def test_truncation_one_reads_lambda_past_2x():
    # a4's Lambda windows reach 262,143 > 2x; a table to 2x ran out of them
    params = VaughanParams(10 ** 5, 1)
    assert decomposition_limit(params) == 262143
    chk = compare_decomposition(params, 2, 9)
    assert chk.components == 45
    assert chk.rel_error <= 1e-12


def test_a3_blocks_share_one_read_only_log_window_per_M():
    decomp = decompose(VaughanParams(10 ** 5, 20))
    a3 = [c for c in decomp.components if c.sign == 1]
    by_M = {}
    for c in a3:
        logs = np.log(dyadic_window(c.M).astype(float))
        assert c.beta.tobytes() == (logs / logs.max()).tobytes()
        by_M.setdefault(c.M, set()).add(id(c.beta))
    assert all(len(ids) == 1 for ids in by_M.values())
    assert len(a3) > len(by_M)
    for c in decomp.components:
        for side in (c.alpha, c.beta):
            assert side is None or not side.flags.writeable


@pytest.mark.parametrize("a, q", [(1, 7), (3, 2), (5, 30), (0, 11), (7, 101)])
def test_component_value_bitwise_the_spec_route(a, q):
    # the evaluator without the spec's checks, against bilinear_sum
    for c in decompose(VaughanParams(5000, 17)).components:
        want = c.sign * c.scale * bilinear_sum(c.to_spec(a, q)).value
        got = component_value(c, a, q)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def _charges(monkeypatch):
    needs = []
    monkeypatch.setattr(vaughan, "charge_budget", lambda need, subject, budget=None: needs.append(need))
    return needs


@pytest.mark.parametrize("x, U", [(10 ** 6, 100), (10 ** 5, 1), (2 * 10 ** 5, 10)])
def test_decompose_peak_within_its_window_charges(monkeypatch, x, U):
    params = VaughanParams(x, U)
    needs = _charges(monkeypatch)
    tracemalloc.start()
    try:
        decompose(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(needs)


def test_decompose_refuses_its_windows_over_the_budget(monkeypatch):
    # decompose keeps every window, past 100 MB at x = 4,000,000; the
    # check holds one block's sides and a chunk of its stream at a time,
    # and gives the values of an unbudgeted run
    params = VaughanParams(4 * 10 ** 6, (4 * 10 ** 6) ** (1 / 3))
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(10 ** 8))
    with pytest.raises(CapacityError, match="coefficient windows of the decomposition"):
        decompose(params)
    chk = compare_decomposition(params, 1, 7)
    assert (chk.direct.real.hex(), chk.direct.imag.hex()) == ("-0x1.44f10aabbf189p+19", "-0x1.7ec5bd65a93cep+11")
    assert (chk.decomposed.real.hex(), chk.decomposed.imag.hex()) == ("-0x1.44f10aabbf188p+19", "-0x1.7ec5bd65a93d4p+11")
    assert chk.components == 87
    # a3's first log window, with a chunk of the stream beside it, passes 10 MB
    monkeypatch.setenv(arith.MEMORY_ENV_VAR, str(10 ** 7))
    with pytest.raises(CapacityError, match="coefficient windows of the decomposition"):
        compare_decomposition(params, 1, 7)


@pytest.mark.parametrize("x, U, a, q", [
    (10 ** 5, 10 ** (5 / 3), 1, 7), (10 ** 5, 1, 2, 9), (3 * 10 ** 5, 30, 5, 1024),
    (10 ** 6, 100, 3, 65537), (777.5, 3.3, 4, 30),
])
def test_streamed_check_bitwise_the_collected_blocks(x, U, a, q):
    # the blocks streamed with sliced log sides, against decompose's blocks
    # built whole and evaluate_decomposition
    params = VaughanParams(x, U)
    chk = compare_decomposition(params, a, q)
    decomp = decompose(params)
    total, _ = evaluate_decomposition(decomp, a, q)
    assert (chk.decomposed.real.hex(), chk.decomposed.imag.hex()) == (total.real.hex(), total.imag.hex())
    assert chk.components == len(decomp.components)


def test_sliced_log_sides_are_slices_of_the_whole_side():
    # at cuts on and off the chunk grid, and the scale of the first pass
    for M in (3, 1000.5, 204800, 3 * 2 ** 16 + 7):
        _, _, whole, scale = vaughan._log_side(M, sliced=False)
        _, window, sliced, sliced_scale = vaughan._log_side(M, sliced=True)
        assert sliced_scale.hex() == scale.hex()
        n = len(window)
        for lo, hi in ((0, n), (1, n - 1), (2 ** 16 - 3, 2 ** 16 + 5), (n // 3, n // 2), (n, n)):
            assert sliced[lo:hi].tobytes() == whole[lo:hi].tobytes()


def test_streamed_check_peaks_within_its_charges(monkeypatch):
    # the check at x = 10**6 holds one block's sides and one chunk of its
    # stream at a time: its peak is within its largest charge, and far
    # below the 25.6 MB of coefficient windows that decompose keeps
    params = VaughanParams(10 ** 6, 100)
    needs = []
    for module in (arith, bilinear, expsums, vaughan):
        monkeypatch.setattr(module, "charge_budget", lambda need, subject, budget=None: needs.append(need))
    tracemalloc.start()
    try:
        compare_decomposition(params, 1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(needs)
    assert peak < 16 * 10 ** 6


@pytest.mark.parametrize("a, q, x", [(1, 7, 50000.0), (2, 9, 120.0), (3, 30, 2 * 10 ** 5), (0, 13, 3000.5),
                                     (5, 2, 10 ** 5), (1, 10 ** 6 + 3, 40000.0)])
def test_prime_power_gap_bitwise_the_two_window_sums(a, q, x):
    # one pass over the terms, two exact sums: the same bits as the
    # Lambda-weighted window sum and the log-weighted prime sum taken apart
    gap = prime_power_gap(a, q, x)
    window = prime_window(math.ceil(x), math.ceil(2 * x))
    lam = window_sum(window, a, q, weight="von_mangoldt").value
    direct = inverse_phase_sum(window.primes, a, q, weights=np.log(window.primes.astype(float))).value
    assert gap.gap.hex() == abs(lam - direct).hex()
