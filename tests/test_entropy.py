import math

import numpy as np
import pytest

from tninv import (
    Spectrum,
    StateData,
    char_poly_relation,
    renyi,
    renyi_from_invariant,
    schmidt_from_jk,
    von_neumann,
    random_pure_state,
    density_from_pure,
    partial_trace,
    schmidt,
    pure_jk,
)

RNG = np.random.default_rng(515)


def random_spectrum(d, rng=RNG):
    p = rng.random(d)
    return Spectrum(p / p.sum())


def test_empty_spectrum_is_refused():
    with pytest.raises(ValueError, match="empty spectrum"):
        Spectrum([])


def random_reduced(d, environment, seed):
    psi = random_pure_state((d, environment), seed=seed)
    rho = density_from_pure(psi)
    return partial_trace(rho, (d, environment), [0])


# ---------------------------------------------------------------- Spectrum


def test_spectrum_from_pure_uses_smaller_side():
    psi = random_pure_state((2, 3, 2), seed=71)
    rho = density_from_pure(psi)
    for keep, rest, size in (([0], [1, 2], 2), ([1, 2], [0], 2), ([1], [0, 2], 3)):
        spec = Spectrum.from_state(StateData.pure(psi), keep)
        assert spec.probs.size == size
        dense = Spectrum.from_density(partial_trace(rho, (2, 3, 2), keep))
        assert von_neumann(spec) == pytest.approx(von_neumann(dense), abs=1e-12)
        # the Schmidt spectrum has no rounding-level eigenvalues where d_keep
        # > d_rest; below order 1 those would move the density route by 1e-8
        ref = Spectrum(schmidt(psi, (keep, rest)).sigma ** 2)
        for alpha in (0.5, 2, 3):
            assert renyi(spec, alpha) == pytest.approx(renyi(ref, alpha), abs=1e-12)
    whole = Spectrum.from_state(StateData.pure(psi), [0, 1, 2])
    assert whole.probs.size == 1 and von_neumann(whole) == pytest.approx(0.0, abs=1e-15)



def test_spectrum_density_route_drops_rounding_eigenvalues():
    # rho_[1,2] is 6 x 6 of rank 2; its four other eigenvalues are rounding
    # noise that would each add p^0.5 ~ 1e-8 below order 1
    psi = random_pure_state((2, 3, 2), seed=71)
    dense = Spectrum.from_density(partial_trace(density_from_pure(psi), (2, 3, 2), [1, 2]))
    pure = Spectrum.from_state(StateData.pure(psi), [1, 2])
    assert np.count_nonzero(dense.probs) == 2
    for alpha in (0.25, 0.5, 2, 3):
        assert renyi(dense, alpha) == pytest.approx(renyi(pure, alpha), abs=1e-12)
    assert renyi(dense, 0.5) == pytest.approx(0.5496887584, abs=1e-10)


def test_spectrum_clamps_small_negatives():
    s = Spectrum([1.0, -1e-13, 1e-13])
    assert np.all(s.probs >= 0.0)


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        Spectrum([0.5, -1e-6, 0.5])
    with pytest.raises(ValueError):
        Spectrum([0.5, 0.4])  # sums to 0.9
    # NaN fails both the sign and the sum comparison
    for probs in ([float("nan")], [0.5, float("nan")], [1.0, float("inf")]):
        with pytest.raises(ValueError, match="non-finite probabilities"):
            Spectrum(probs)


def test_spectrum_from_density():
    s = Spectrum.from_density(np.eye(4) / 4)
    assert np.allclose(s.probs, 0.25)


# ------------------------------------------------------------------- Renyi


def test_renyi_pure_spectrum_is_zero():
    s = Spectrum([1.0, 0.0, 0.0])
    for alpha in (0.5, 2, 3, 7.2):
        assert renyi(s, alpha) == pytest.approx(0.0, abs=1e-12)


def test_pure_spectrum_entropies_are_unsigned_zero():
    # -sum p ln p and ln(1) / (1 - alpha) are -0.0 on a pure spectrum
    s = Spectrum([1.0, 0.0, 0.0])
    values = [von_neumann(s), renyi_from_invariant(1.0, 2)]
    values += [renyi(s, alpha) for alpha in (0.5, 2, 3, 7.2)]
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values), values
    # a top eigenvalue or a trace that rounds above 1 takes them below zero
    cut = Spectrum.from_state(StateData.pure(random_pure_state((2,), seed=1)), [0])
    rounded = [renyi_from_invariant(1 + 2.3e-16, 2)]
    for s in (Spectrum([1 + 4.4e-16]), cut):
        rounded += [von_neumann(s)] + [renyi(s, alpha) for alpha in (0.5, 2, 3, 7.2)]
    assert all(v >= 0.0 and math.copysign(1.0, v) == 1.0 for v in rounded), rounded


def test_entropies_pass_nan_through():
    assert math.isnan(renyi_from_invariant(float("nan"), 2))


def test_renyi_uniform_is_log_d():
    s = Spectrum([0.25] * 4)
    for alpha in (0.5, 2, 3):
        assert renyi(s, alpha) == pytest.approx(np.log(4), abs=1e-12)


def test_renyi_two_level_closed_form():
    p = 0.37
    s = Spectrum([p, 1 - p])
    want = -np.log(p**2 + (1 - p) ** 2)
    assert abs(renyi(s, 2) - want) < 1e-12


def test_renyi_rejects_bad_alpha():
    s = Spectrum([0.5, 0.5])
    with pytest.raises(ValueError):
        renyi(s, 0)
    with pytest.raises(ValueError):
        renyi(s, -2)
    with pytest.raises(ValueError):
        renyi(s, 1)
    for alpha in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="alpha"):
            renyi(s, alpha)


def test_renyi_large_alpha_tends_to_min_entropy():
    # sum p^alpha underflows to 0 here, which read as S = inf
    two = Spectrum(np.array([0.6, 0.4]))
    a = 1e4
    assert renyi(two, a) == pytest.approx(-a / (a - 1) * np.log(0.6), rel=1e-12)
    # alpha * ln(p_max) overflows once p_max < exp(-1.8); S_alpha -> -ln p_max
    assert renyi(Spectrum(np.full(8, 1 / 8)), 1e308) == pytest.approx(np.log(8), rel=1e-12)
    p = RNG.dirichlet(np.ones(16))
    assert renyi(Spectrum(p), 1e308) == pytest.approx(-np.log(p.max()), rel=1e-12)


def test_renyi_moderate_alpha_matches_direct_sum():
    p = RNG.dirichlet(np.ones(6))
    for alpha in (0.3, 0.5, 2, 3, 7.2, 30):
        direct = np.log(np.sum(p**alpha)) / (1 - alpha)
        assert renyi(Spectrum(p), alpha) == pytest.approx(direct, rel=1e-12)


def test_renyi_monotone_in_alpha():
    for _ in range(100):
        s = random_spectrum(5)
        vals = [renyi(s, a) for a in (0.5, 2, 3, 4)]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))


# ------------------------------------------------------------- von Neumann


def test_von_neumann_cases():
    assert von_neumann(Spectrum([1.0, 0.0])) == 0.0
    assert von_neumann(Spectrum([0.5, 0.5])) == pytest.approx(np.log(2), abs=1e-12)


def test_von_neumann_is_renyi_limit():
    for _ in range(5):
        s = random_spectrum(4)
        below = renyi(s, 1 - 1e-5)
        above = renyi(s, 1 + 1e-5)
        svn = von_neumann(s)
        assert abs(below - svn) < 1e-3
        assert abs(above - svn) < 1e-3


def test_product_state_has_zero_entropy():
    psi = random_pure_state((2,), seed=1)
    prod = np.outer(psi.data, random_pure_state((3,), seed=2).data)
    from tninv import Tensor

    rho = density_from_pure(Tensor(prod))
    red = partial_trace(rho, (2, 3), [0])
    s = Spectrum.from_density(red)
    assert von_neumann(s) == pytest.approx(0.0, abs=1e-10)
    for alpha in (0.5, 2, 3):
        assert renyi(s, alpha) == pytest.approx(0.0, abs=1e-10)


# -------------------------------------------------------- invariant bridge


def test_renyi_from_invariant_trivial():
    assert renyi_from_invariant(1.0, 2) == 0.0
    assert renyi_from_invariant(1.0, 5) == 0.0


def test_renyi_from_invariant_bell():
    assert renyi_from_invariant(0.5, 2) == pytest.approx(np.log(2), abs=1e-12)


def test_renyi_from_invariant_rejects():
    with pytest.raises(ValueError):
        renyi_from_invariant(0.0, 2)
    with pytest.raises(ValueError):
        renyi_from_invariant(-0.5, 2)
    with pytest.raises(ValueError):
        renyi_from_invariant(0.5, 1)
    with pytest.raises(ValueError):
        renyi_from_invariant(0.5, 2.5)


def test_renyi_from_invariant_matches_spectrum():
    psi = random_pure_state((2,) * 5, seed=77)
    red = partial_trace(density_from_pure(psi), (2,) * 5, [0, 1])
    spec = Spectrum.from_density(red)
    j3 = pure_jk(psi, ([0, 1], [2, 3, 4]), 3)
    assert abs(renyi_from_invariant(j3, 3) - renyi(spec, 3)) < 1e-9


# ----------------------------------------------------- characteristic poly


def test_char_poly_maximally_mixed_qubit():
    rel = char_poly_relation(np.eye(2) / 2)
    a, b = rel.coeffs
    assert a == pytest.approx(-1.0, abs=1e-12)
    assert b == pytest.approx(0.25, abs=1e-12)
    assert rel.residual == pytest.approx(0.0, abs=1e-14)


def test_char_poly_random_dim4():
    for seed in range(20):
        rho = random_reduced(4, 4, seed)
        rel = char_poly_relation(rho)
        assert rel.residual <= 1e-8
        assert rel.trace_residual <= 1e-9  # traced Cayley-Hamilton
        assert abs(rel.residual - rel.trace_residual) < 1e-10


@pytest.mark.parametrize("d", range(2, 9))
def test_char_poly_keeps_the_bits_of_two_loops(d):
    # the identity as two loops over m = 2..d, each opening with the folded
    # constant: the single sum over m = 0..d must give every bit of both
    for seed in range(3):
        rho = random_reduced(d, d + seed, seed)
        herm = (rho.data + rho.data.conj().T) / 2.0
        evals = np.linalg.eigvalsh(herm)
        coeffs = np.real(np.poly(evals)[1:])
        tr = float(np.trace(herm).real)
        spec = Spectrum(evals)
        total = coeffs[d - 2] * tr + d * coeffs[d - 1]
        for m in range(2, d + 1):
            c = 1.0 if m == d else coeffs[d - 1 - m]
            total += c * np.exp(-(m - 1) * renyi(spec, m))
        power = herm.copy()
        t_total = coeffs[d - 1] * d + coeffs[d - 2] * tr
        for m in range(2, d + 1):
            power = power @ herm
            c = 1.0 if m == d else coeffs[d - 1 - m]
            t_total += c * float(np.trace(power).real)
        rel = char_poly_relation(rho)
        assert rel.coeffs.tolist() == coeffs.tolist()
        assert rel.residual == abs(float(total))
        assert rel.trace_residual == abs(float(t_total))


def test_char_poly_pure_reduced_state():
    psi = random_pure_state((4,), seed=4)
    rho = density_from_pure(psi)
    rel = char_poly_relation(rho)
    # all tr(rho^k) = 1: the polynomial evaluated at 1 vanishes
    assert rel.residual < 1e-10


def test_char_poly_rejects_large_dimension():
    with pytest.raises(ValueError):
        char_poly_relation(np.eye(9) / 9)


# --------------------------------------------------------------- J_k solve


def test_schmidt_from_jk_bell():
    sig = schmidt_from_jk([1.0, 0.5])
    assert np.allclose(sig**2, [0.5, 0.5], atol=1e-12)


def test_schmidt_from_jk_product():
    sig = schmidt_from_jk([1.0, 1.0])
    assert np.allclose(sig**2, [1.0, 0.0], atol=1e-12)


def test_schmidt_from_jk_rejects_inconsistent():
    with pytest.raises(ValueError):
        schmidt_from_jk([1.0, 1.5])  # J2 > J1^2
    with pytest.raises(ValueError):
        schmidt_from_jk([1.0, 0.4])  # J1^2 > 2 J2


def test_schmidt_from_jk_roundtrip_d3():
    sig = np.array([0.7, 0.6, np.sqrt(1 - 0.49 - 0.36)])
    j = [float(np.sum(sig ** (2 * k))) for k in (1, 2, 3)]
    rec = schmidt_from_jk(j)
    back = [float(np.sum(rec ** (2 * k))) for k in (1, 2, 3)]
    assert np.max(np.abs(np.array(back) - np.array(j))) < 1e-8
    assert np.allclose(rec, np.sort(sig)[::-1], atol=1e-8)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_schmidt_from_jk_roundtrip_random(d):
    for seed in range(5):
        psi = random_pure_state((d, d + 1), seed=seed)
        sig = schmidt(psi, ([0], [1])).sigma
        j = [float(np.sum(sig ** (2 * k))) for k in range(1, d + 1)]
        rec = schmidt_from_jk(j)
        assert np.max(np.abs(rec - np.sort(sig)[::-1])) < 1e-8


# Worst |sigma error| measured over the 200 states: 1.1e-15, 8.5e-15, 2.3e-13,
# 5.1e-13, 5.5e-12, 6.8e-10 and 1.2e-9 for d = 2..8; each bound is ~10x that.
@pytest.mark.parametrize(
    "d, bound",
    [(2, 1e-14), (3, 1e-13), (4, 3e-12), (5, 5e-12), (6, 5e-11), (7, 7e-9), (8, 1.2e-8)],
)
def test_schmidt_from_jk_conditioning_grows_with_d(d, bound):
    worst = 0.0
    for seed in range(200):
        sig = np.sort(schmidt(random_pure_state((d, d), seed=seed), ([0], [1])).sigma)[::-1]
        rec = schmidt_from_jk([float(np.sum(sig ** (2 * k))) for k in range(1, d + 1)])
        worst = max(worst, float(np.max(np.abs(rec - sig))))
    assert worst <= bound


def test_schmidt_from_jk_limits():
    with pytest.raises(ValueError):
        schmidt_from_jk([])
    with pytest.raises(ValueError):
        schmidt_from_jk([1.0] * 9)


def test_char_poly_relation_of_a_one_by_one_operator():
    # lambda - 1: one coefficient, and tr(rho) + c_1 folds to exactly 0 in both forms
    rel = char_poly_relation(np.array([[1.0]]))
    assert rel.coeffs.tolist() == [-1.0]
    assert (rel.residual, rel.trace_residual) == (0.0, 0.0)
    # no entropy enters at d = 1, so an operator of trace 2 is no Spectrum to refuse
    rel = char_poly_relation(np.array([[2.0]]))
    assert rel.coeffs.tolist() == [-2.0]
    assert (rel.residual, rel.trace_residual) == (0.0, 0.0)


def test_schmidt_from_one_power_sum():
    assert schmidt_from_jk([0.25]).tolist() == [0.5]
    assert schmidt_from_jk([-1e-13]).tolist() == [0.0]  # within CLAMP_TOL of 0


def test_schmidt_from_one_negative_power_sum_is_refused():
    with pytest.raises(ValueError, match=r"^J_1 = -0\.001 is negative$"):
        schmidt_from_jk([-1e-3])


def test_schmidt_from_two_inconsistent_power_sums_is_refused():
    # J_2 > J_1^2: no pair of sigma^2 has these power sums
    with pytest.raises(ValueError, match=r"^inconsistent power sums: need J2 <= J1\^2 <= 2 J2, "
                                         r"got 1\.0, 2\.0$"):
        schmidt_from_jk([1.0, 2.0])


def test_schmidt_from_jk_refuses_complex_roots():
    # J = (0, 0, 1): sigma^2 would be the cube roots of 1/3, two of them complex
    with pytest.raises(ValueError, match=r"^inconsistent power sums: complex sigma\^2 "):
        schmidt_from_jk([0.0, 0.0, 1.0])


def test_schmidt_from_jk_refuses_a_negative_root():
    # the power sums of sigma^2 = 1, 1/2 and -1/2
    with pytest.raises(ValueError, match=r"^inconsistent power sums: negative sigma\^2 "):
        schmidt_from_jk([1.0, 1.5, 1.0])


def test_pure_jk_refuses_k_below_one():
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        pure_jk(random_pure_state((2, 2), seed=3), ([0], [1]), 0)
