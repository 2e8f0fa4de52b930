import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from twopatch import cli, eigen, ibm, model


def params(*, n=2, mu=math.sqrt(1.0 / 1800.0), delta=0.05, rmax=1.0 / 18.0, beta=0.5,
           U=1.0 / 6.0, N0=200, T=10, cap=10_000_000):
    # mu^2 / U at the default mu and U is exactly 1/300 in float64
    mp = model.ModelParams(n=n, mu=mu, rmax1=rmax, rmax2=rmax, beta=beta,
                           migration=model.Symmetric(delta))
    return ibm.IbmParams(model=mp, U=U, N0=N0, T=T, cap=cap)


def test_mu2_links_to_density_model():
    p = params()
    assert p.lambda_var == 1.0 / 300.0
    assert p.U * p.lambda_var == pytest.approx(1.0 / 1800.0, rel=1e-15)  # mu^2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fitness_is_bitwise_the_two_dimensional_expression(n):
    # the 1-D buffers of _fitness against the expression with the square of
    # the rows' y column (x2 at n = 2, the transverse radius at n = 3) summed
    # over that one column
    p = params(n=n, beta=0.37, rmax=0.055)
    rng = np.random.default_rng(n)
    cols = min(n, 2)
    pop = np.concatenate([rng.normal(0.0, 0.3, (5000, cols)), rng.normal(0.0, 30.0, (5000, cols)),
                          np.zeros((1, cols)), np.full((1, cols), -0.0)])
    if n > 2:
        pop[:, 1] = np.abs(pop[:, 1])
    for habitat, opt in ((1, -p.model.beta), (2, p.model.beta)):
        sq = np.square(pop[:, 0] - opt)
        if n > 1:
            sq = sq + np.sum(np.square(pop[:, 1:]), axis=1)
        want = p.model.rmax1 - 0.5 * sq
        assert ibm._fitness(p, habitat, pop).tobytes() == want.tobytes()


def test_validation_collects_every_failure():
    # the model's own fields are the ModelParams' to check; IbmParams checks
    # the IBM's domain: mirror habitats, 0 < U < inf, and its run sizes
    unequal = model.ModelParams(n=2, mu=0.1, rmax1=0.1, rmax2=0.2, beta=0.5,
                                migration=model.Symmetric(0.05))
    with pytest.raises(ValueError) as exc:
        ibm.IbmParams(model=unequal, U=0.0, N0=0, T=-1, cap=0)
    msg = str(exc.value)
    for fragment in ("migration = symmetric", "rmax1 == rmax2", "needs U > 0, got 0.0",
                     "N0 must be", "T must be", "cap must be"):
        assert fragment in msg


@pytest.mark.parametrize("U, message", [(0.0, "needs U > 0, got 0.0"),
                                        (-1.0, "needs U > 0, got -1.0"),
                                        (math.nan, "needs U > 0, got nan"),
                                        (math.inf, "U must be finite, got inf"),
                                        (1e30, "U must be at most 1e\\+06")],
                         ids=["zero", "negative", "nan", "inf", "huge"])
def test_mutation_rate_must_be_positive_and_finite(U, message):
    # lambda_var = mu^2 / U: an IBM without mutations has no density model
    with pytest.raises(ValueError, match=message):
        params(U=U)


def test_run_is_bit_reproducible():
    p = params(T=20)
    a = ibm.run(p, seed=123)
    b = ibm.run(p, seed=123)
    np.testing.assert_array_equal(a.N1, b.N1)
    np.testing.assert_array_equal(a.N2, b.N2)
    np.testing.assert_array_equal(a.rbar1, b.rbar1)
    c = ibm.run(p, seed=124)
    assert not np.array_equal(a.N1, c.N1)


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# sha256 prefixes of the float64 bytes of N1, N2, rbar1, rbar2 from ibm.run,
# then of pop1 and pop2 after T steps from the same founding state
_STREAM_DIGESTS = {
    "n2_persisting": (dict(rmax=0.3, N0=300, T=30), 2020, (
        "8ec4d3c02d82d481", "388b9786c8b39b97", "ab52e6d98b0a01fe", "5f06f5041a02c3a7",
        "3a09867f53e37573", "7c9965301c6836ef")),
    # rows (x1, rho): each mutant draws two normals and one chi-square
    "n3": (dict(n=3, N0=400, T=15, delta=0.1), 7, (
        "07cfd619d9ed90be", "f6e0f968c208dd1f", "80e09e87004f5bd6", "06d1dcfedf0b8e0b",
        "16cdf1bb3648e8a8", "5dec0c924103236f")),
}


@pytest.mark.parametrize("case", sorted(_STREAM_DIGESTS))
def test_run_stream_is_pinned(case):
    # Pins the RNG stream and the arithmetic of every stage bit for bit: a
    # change that alters any draw, its order or a row's value changes these
    # digests and must say so. The n = 2 case persists with delta > 0 and
    # beta > 0, so every stage runs and its last generations draw parent
    # proposals in more than one chunk.
    overrides, seed, want = _STREAM_DIGESTS[case]
    p = params(**overrides)
    traj = ibm.run(p, seed)
    s = ibm.init_clonal(p, seed)
    for t in range(p.T):
        record = ibm.step(s, p)  # the parents' record, as ibm.run keeps it
        np.testing.assert_array_equal(record, [traj.N1[t], traj.N2[t],
                                               traj.rbar1[t], traj.rbar2[t]])
    assert s.pop1.shape[0] == traj.N1[-1] and s.pop2.shape[0] == traj.N2[-1]
    got = tuple(_sha256(a) for a in (traj.N1, traj.N2, traj.rbar1, traj.rbar2, s.pop1, s.pop2))
    assert got == want


def test_clonal_founding_state():
    p = params(N0=37)
    s = ibm.init_clonal(p, seed=0)
    assert s.pop1.shape == (37, 2)
    assert ibm.init_clonal(params(n=40, N0=37)).pop1.shape == (37, 2)  # (x1, rho) rows
    np.testing.assert_array_equal(s.pop1, 0.0)
    np.testing.assert_array_equal(s.pop2, 0.0)
    assert s.generation == 0


def test_offspring_mean_matches_poisson_intensity():
    # one reproduction round on a large clonal population sitting at the
    # habitat-1 optimum: mean offspring per parent estimates exp(rmax)
    n_ind = 100_000
    p = params(N0=n_ind, T=0, cap=10_000_000)
    s = ibm.init_clonal(p, seed=42)
    s.pop1 = np.tile(np.array([-p.model.beta, 0.0]), (n_ind, 1))
    s.pop2 = s.pop1.copy()  # at habitat 1's optimum; habitat 2 just adds draws
    ibm.reproduction_selection(s, p)
    want = math.exp(p.model.rmax1)
    got = s.pop1.shape[0] / n_ind
    se = math.sqrt(want / n_ind)
    assert abs(got - want) <= 3.0 * se


def test_offspring_per_parent_follow_their_own_poisson_law():
    # Two fitness classes in habitat 1: class a at the optimum (lambda_a =
    # exp(rmax)), class b one unit of fitness below (lambda_b = lambda_a / e).
    # Every parent carries a distinct trait-2 tag of at most 1e-4, which moves
    # r by under 1e-8, so each offspring names its parent. Per class, the
    # share of parents with k = 0..3 offspring must match Poisson(lambda)
    # within 4 SE, and the offspring ratio between the classes lambda_a /
    # lambda_b within 4 SE. Uniform parents give both classes Poisson(mean
    # lambda); rejection against the mean lambda instead of the max gives a
    # ratio near 1.86 in place of e.
    per_class = 50_000
    p = params(N0=1, T=0)
    tags = np.arange(2 * per_class) * (1e-4 / (2 * per_class))
    x1 = np.where(np.arange(2 * per_class) < per_class, -p.model.beta, -p.model.beta + math.sqrt(2.0))
    s = ibm.IbmState(pop1=np.column_stack([x1, tags]), pop2=np.zeros((0, 2)),
                     generation=0, rng=np.random.default_rng(31))
    ibm.reproduction_selection(s, p)
    parent = np.searchsorted(tags, s.pop1[:, 1])
    np.testing.assert_array_equal(tags[parent], s.pop1[:, 1])
    np.testing.assert_array_equal(x1[parent], s.pop1[:, 0])
    counts = np.bincount(parent, minlength=2 * per_class)
    lam = {"a": math.exp(p.model.rmax1), "b": math.exp(p.model.rmax1 - 1.0)}
    for label, cls in (("a", counts[:per_class]), ("b", counts[per_class:])):
        for k in range(4):
            want = math.exp(-lam[label]) * lam[label] ** k / math.factorial(k)
            got = np.count_nonzero(cls == k) / per_class
            se = math.sqrt(want * (1.0 - want) / per_class)
            assert abs(got - want) <= 4.0 * se, (label, k, got, want, se)
    n_a, n_b = int(counts[:per_class].sum()), int(counts[per_class:].sum())
    ratio_se = math.e * math.sqrt(1.0 / n_a + 1.0 / n_b)
    assert abs(n_a / n_b - math.e) <= 4.0 * ratio_se, (n_a / n_b, ratio_se)


def test_reproduction_rejection_worst_case_and_empty_habitats():
    # one parent at the optimum among 1e5 at r = -40: about 1e5 proposals per
    # offspring, and every offspring copies the fit parent
    p = params(rmax=2.0, N0=1, T=0)
    far = -p.model.beta + math.sqrt(2.0 * (p.model.rmax1 + 40.0))
    pop1 = np.tile([far, 0.0], (100_001, 1))
    pop1[50_000] = [-p.model.beta, 0.0]
    s = ibm.IbmState(pop1=pop1, pop2=np.zeros((0, 2)), generation=0,
                     rng=np.random.default_rng(4))
    start = time.perf_counter()
    ibm.reproduction_selection(s, p)
    assert time.perf_counter() - start < 5.0
    assert s.pop1.shape[0] > 0
    np.testing.assert_array_equal(s.pop1, np.tile([-p.model.beta, 0.0], (s.pop1.shape[0], 1)))
    assert s.pop2.shape == (0, 2) and s.pop2.dtype == np.float64  # empty habitat

    # five parents at r < -60 draw a zero total
    dying = np.tile([p.model.beta + math.sqrt(2.0 * (p.model.rmax1 + 60.0)), 0.0], (5, 1))
    s = ibm.IbmState(pop1=dying, pop2=np.zeros((0, 2)), generation=0,
                     rng=np.random.default_rng(4))
    ibm.reproduction_selection(s, p)
    for pop in (s.pop1, s.pop2):
        assert pop.shape == (0, 2) and pop.dtype == np.float64


@pytest.mark.parametrize("order", ["C", "F"])
def test_reproduction_peak_memory_is_rows_plus_one_lambda(order):
    # Peak traced allocation of one reproduction step at 2e5 individuals per
    # habitat, which evaluates the fitness it consumes. While habitat i draws
    # its parents these must coexist: the old rows of every habitat not yet
    # replaced, the new rows drawn so far (habitat i's included), the one
    # lambda array of every habitat not yet drawn (the fitness array turned
    # into lambda in place), and the proposal-chunk temporaries: indices,
    # uniforms, lambda at the indices and the acceptance mask, at most 4 * 8
    # bytes per proposal. A Fortran-ordered habitat is first copied to C order
    # for the record-view gather: one more copy of its rows.
    n, per = 2, 200_000
    p = params(n=n, rmax=0.1, N0=1, cap=10**7)
    tracemalloc.start()
    try:
        rng = np.random.default_rng(12)
        s = ibm.IbmState(pop1=np.array(rng.normal(-p.model.beta, 0.3, (per, n)), order=order),
                         pop2=np.array(rng.normal(p.model.beta, 0.3, (per, n)), order=order),
                         generation=0, rng=np.random.default_rng(13))
        tracemalloc.reset_peak()
        ibm.reproduction_selection(s, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row, lam = 8 * n, 8 * per
    old, new1, new2 = row * per, row * s.pop1.shape[0], row * s.pop2.shape[0]
    copy = old if order == "F" else 0
    drawing_1 = 2 * old + 2 * lam + new1 + copy
    drawing_2 = old + lam + new1 + new2 + copy
    bound = max(drawing_1, drawing_2) + 4 * 8 * ibm._PROPOSAL_CHUNK
    assert peak <= bound, (peak, bound, peak - bound)
    assert s.pop1.flags.c_contiguous and s.pop2.flags.c_contiguous
    if order == "F":  # the copy gathers the same rows as a C-ordered habitat
        rng = np.random.default_rng(12)
        c = ibm.IbmState(pop1=rng.normal(-p.model.beta, 0.3, (per, n)),
                         pop2=rng.normal(p.model.beta, 0.3, (per, n)),
                         generation=0, rng=np.random.default_rng(13))
        ibm.reproduction_selection(c, p)
        np.testing.assert_array_equal(c.pop1, s.pop1)
        np.testing.assert_array_equal(c.pop2, s.pop2)


def _sorted_rows(rows):
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_row_moves_for_any_dimension_and_layout(n, order):
    # migration and mutation move rows (x1, y) of min(n, 2) columns through a
    # 1-D record view; that view needs C-ordered rows, so a caller-built
    # Fortran-ordered state and a zero-row habitat must work too
    n_ind, cols = 20_000, min(n, 2)
    p = params(n=n, delta=0.3, N0=1)
    rng = np.random.default_rng(40 + n)
    for n2 in (0, 300):
        rows = rng.normal(size=(n_ind + n2, cols))
        s = ibm.IbmState(pop1=np.array(rows[:n_ind], order=order),
                         pop2=np.array(rows[n_ind:], order=order),
                         generation=0, rng=np.random.default_rng(n))
        ibm.migration(s, p)
        assert s.pop1.shape[1] == s.pop2.shape[1] == cols
        np.testing.assert_array_equal(_sorted_rows(np.concatenate([s.pop1, s.pop2])),
                                      _sorted_rows(rows))

    s = ibm.IbmState(pop1=np.zeros((n_ind, cols), order=order),
                     pop2=np.zeros((0, cols), order=order),
                     generation=0, rng=np.random.default_rng(n))
    ibm.mutation(s, p)
    assert s.pop2.shape == (0, cols)
    moved = np.any(s.pop1 != 0.0, axis=1)
    frac = -math.expm1(-p.U)
    assert abs(moved.mean() - frac) <= 4.0 * math.sqrt(frac * (1.0 - frac) / n_ind)


def test_mutation_table_is_built_once_per_rate():
    p = params(N0=50)
    s = ibm.init_clonal(p, seed=3)
    ibm.mutation(s, p)
    table = ibm._truncated_poisson_cdf(p.U)
    ibm.mutation(s, p)
    assert ibm._truncated_poisson_cdf(p.U) is table
    assert not table.flags.writeable


def test_mutation_displacement_variance():
    # compound Poisson: per-trait displacement variance is U * lambda_var
    n_ind = 100_000
    p = params(N0=n_ind, T=0)
    s = ibm.init_clonal(p, seed=7)
    before = s.pop1.copy()
    ibm.mutation(s, p)
    disp = s.pop1 - before
    var = disp.var(axis=0)
    assert var.shape == (2,)
    mu_squared = p.U * p.lambda_var
    np.testing.assert_allclose(var, mu_squared, rtol=0.05)
    assert abs(disp.mean()) < 5.0 * math.sqrt(mu_squared / (2 * n_ind))


@pytest.mark.parametrize("n", [3, 5, 40])
def test_mutation_draws_the_n_dimensional_law_of_the_radius(n):
    # One mutation step from rows (x1, rho) = (0.1, 0.1) against a direct
    # n-trait draw made here: x_perp = rho e1 plus K N(0, lambda_var I_{n-1})
    # steps, K ~ Poisson(U) given K >= 1. The mutants' new radii and the
    # direct |x_perp'| must pass the two-sample Kolmogorov-Smirnov test at
    # level 1e-3: D <= c sqrt((a + b) / (a b)) for samples of sizes a and b,
    # c = sqrt(ln(2 / 1e-3) / 2) = 1.949 (the Kolmogorov tail 2 exp(-2 c^2)).
    # U = 2 mutates 86% of the rows and mixes K over 1 to about 8.
    n_ind, x1, rho = 200_000, 0.1, 0.1
    p = params(n=n, mu=0.1, U=2.0, N0=1)
    s = ibm.IbmState(pop1=np.tile([x1, rho], (n_ind, 1)), pop2=np.zeros((0, 2)),
                     generation=0, rng=np.random.default_rng(60 + n))
    ibm.mutation(s, p)
    got = s.pop1[s.pop1[:, 0] != x1, 1]
    rng = np.random.default_rng(70 + n)
    k = rng.poisson(p.U, 2 * got.size)
    k = k[k > 0][:got.size]
    x_perp = rng.standard_normal((k.size, n - 1)) * np.sqrt(k * p.lambda_var)[:, None]
    x_perp[:, 0] += rho
    want = np.linalg.norm(x_perp, axis=1)
    c = math.sqrt(math.log(2.0 / 1e-3) / 2.0)
    bound = c * math.sqrt((got.size + want.size) / (got.size * want.size))
    d = stats.ks_2samp(got, want).statistic
    assert d <= bound, (d, bound)


@pytest.mark.parametrize("U", [1.0 / 6.0, 20.0])
def test_mutation_displaces_a_thinned_fraction(U):
    # a fraction 1 - exp(-U) of individuals mutates; given K >= 1 the mean
    # count is U / (1 - exp(-U)), which sets the displaced rows' variance.
    # U = 20 reaches deep into the zero-truncated Poisson table.
    n_ind = 100_000
    p = params(U=U, N0=n_ind, T=0)
    s = ibm.init_clonal(p, seed=8)
    ibm.mutation(s, p)
    moved = np.any(s.pop1 != 0.0, axis=1)
    frac = -math.expm1(-U)
    assert abs(moved.mean() - frac) <= 3.0 * math.sqrt(frac * (1.0 - frac) / n_ind)
    np.testing.assert_allclose(s.pop1[moved].var(axis=0),
                               U * p.lambda_var / frac, rtol=0.05)
    np.testing.assert_allclose(s.pop1.var(axis=0), U * p.lambda_var, rtol=0.05)




def test_migration_conserves_totals_exactly():
    p = params(delta=0.3)
    rng = np.random.default_rng(11)
    s = ibm.IbmState(pop1=rng.normal(size=(500, 2)), pop2=rng.normal(size=(300, 2)),
                     generation=0, rng=np.random.default_rng(5))
    mass_before = s.pop1.sum() + s.pop2.sum()
    for _ in range(50):
        ibm.migration(s, p)
        assert s.pop1.shape[0] + s.pop2.shape[0] == 800
    # the same individuals persist, only their habitat labels change
    assert s.pop1.sum() + s.pop2.sum() == pytest.approx(mass_before, rel=1e-12)


def test_migration_picks_movers_uniformly_over_positions():
    # label the rows of one habitat; movers must come from the first and the
    # last half of the rows at the same rate (the in-place tail swap must not
    # favour either end)
    n_ind, calls = 1000, 400
    p = params(delta=0.3)
    rng = np.random.default_rng(21)
    labels = np.repeat(np.arange(n_ind, dtype=float)[:, None], 2, axis=1)
    diffs = np.empty(calls)
    for c in range(calls):
        s = ibm.IbmState(pop1=labels.copy(), pop2=np.zeros((0, 2)), generation=0, rng=rng)
        ibm.migration(s, p)
        moved = s.pop2[:, 0]
        np.testing.assert_array_equal(np.sort(np.concatenate([s.pop1[:, 0], moved])),
                                      labels[:, 0])
        first = np.count_nonzero(moved < n_ind // 2)
        diffs[c] = (first - (moved.size - first)) / (n_ind // 2)
    se = diffs.std(ddof=1) / math.sqrt(calls)
    assert abs(diffs.mean()) <= 4.0 * se


def test_migration_moves_mass_between_habitats():
    p = params(delta=0.5)
    s = ibm.IbmState(pop1=np.ones((400, 2)), pop2=np.zeros((0, 2)),
                     generation=0, rng=np.random.default_rng(3))
    ibm.migration(s, p)
    assert s.pop2.shape[0] > 0
    assert s.pop1.shape[0] + s.pop2.shape[0] == 400


def test_overflow_raises():
    p = params(rmax=2.0, N0=1000, T=50, cap=5000)
    with pytest.raises(ibm.IbmOverflowError, match="cap"):
        ibm.run(p, seed=0)
    s = ibm.init_clonal(p, seed=0)
    parents = (s.pop1, s.pop2)
    with pytest.raises(ibm.IbmOverflowError, match="cap"):
        ibm.reproduction_selection(s, p)
    assert s.pop1 is parents[0] and s.pop2 is parents[1] and s.generation == 0


def test_extinct_population_stays_extinct():
    # strongly negative fitness kills both habitats fast; records keep zeros
    p = params(rmax=-5.0, N0=20, T=15)
    traj = ibm.run(p, seed=2)
    assert traj.extinct
    assert traj.N1[-1] == 0.0 and traj.N2[-1] == 0.0
    dead = np.flatnonzero(traj.n_total() == 0)
    assert dead.size > 0
    np.testing.assert_array_equal(traj.n_total()[dead[0]:], 0.0)
    assert math.isnan(traj.rbar1[-1])


def test_trajectory_layout():
    p = params(T=7)
    traj = ibm.run(p, seed=9)
    np.testing.assert_array_equal(traj.t, np.arange(8.0))
    assert traj.N1[0] == p.N0 and traj.N2[0] == p.N0
    assert traj.rbar1[0] == pytest.approx(p.model.rmax1 - 0.5 * p.model.beta**2)


def test_run_replicates_mean_and_reproducibility():
    p = params(T=5)
    seeds = [(77, k) for k in range(4)]
    a = ibm.run_replicates(p, seeds)
    b = ibm.run_replicates(p, seeds)
    np.testing.assert_array_equal(a.n_total_mean, b.n_total_mean)
    assert len(a.trajectories) == 4
    stacked = np.stack([tr.n_total() for tr in a.trajectories])
    np.testing.assert_allclose(a.n_total_mean, stacked.mean(axis=0))
    with pytest.raises(ValueError, match="at least one seed"):
        ibm.run_replicates(p, [])


def test_thinning_keeps_the_mean_total():
    # Splitting and Russian roulette: the mean weighted final total of runs
    # thinned at the ceiling 4 N0 estimates the mean final total of unthinned
    # runs (on other seeds). At rmax = 0.3 a run founded by 2 N0 = 40 passes
    # its ceiling 4 to 5 times in T = 20 generations. A halving without
    # its doubled weight, or a keep probability of 0.55 at weight 2, fails.
    p = params(rmax=0.3, N0=20, T=20, delta=0.1)
    reps, ceiling = 200, 4 * 20
    thinned = ibm.run_replicates(p, [(1, k) for k in range(reps)], ceiling=ceiling)
    full = ibm.run_replicates(p, [(2, k) for k in range(reps)])
    for tr in thinned.trajectories:
        assert tr.weight[0] == 1.0 and np.all(np.diff(tr.weight) >= 0)
        assert np.all(np.frexp(tr.weight)[0] == 0.5)  # powers of 2
        assert np.all(tr.n_total()[1:] <= ceiling)  # the individuals simulated
    assert np.median([tr.weight[-1] for tr in thinned.trajectories]) >= 2.0 ** 4
    assert all(np.all(tr.weight == 1.0) for tr in full.trajectories)
    x = np.array([tr.n_total()[-1] * tr.weight[-1] for tr in thinned.trajectories])
    y = np.array([tr.n_total()[-1] for tr in full.trajectories])
    np.testing.assert_allclose(thinned.n_total_mean[-1], x.mean(), rtol=1e-12)
    z = (x.mean() - y.mean()) / math.sqrt(x.var(ddof=1) / reps + y.var(ddof=1) / reps)
    assert abs(z) <= 4.0, (x.mean(), y.mean(), z)


@pytest.mark.parametrize("delta,m_d", [(0.05, 0.0), (0.1, 0.8)])
def test_ibm_growth_sign_matches_lambda(delta, m_d):
    # a fast stand-in for criterion 11's IBM check: one persisting cell and
    # one extinct cell of its sweep, at N0 = 200, T = 60 and 3 replicates
    start = time.perf_counter()
    config = cli.ExperimentConfig(N0=200, T=60, replicates=3)
    params = cli.to_model_params(config, delta=delta, m_d=m_d)
    lam = eigen.lambda_of(params)
    summary = ibm.run_replicates(cli.ibm_params(config, params),
                                 [[config.seed, k] for k in range(config.replicates)])
    growth = summary.n_total_mean[-1] - summary.n_total_mean[0]
    assert (growth > 0) == (lam < 0), (lam, summary.n_total_mean[[0, -1]])
    assert time.perf_counter() - start < 2.0
