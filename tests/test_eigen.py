import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from twopatch import cli, eigen, hermite, model, thresholds
from twopatch.grid import build_grid

FIG_MU = math.sqrt(1.0 / 1800.0)
FIG_RMAX = 1.0 / 18.0


def ref_params(n=1, delta=0.05, beta=0.5):
    return model.ModelParams(n=n, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=FIG_RMAX,
                             beta=beta, migration=model.Symmetric(delta))


def test_raw_tridiagonal_matches_textbook_value():
    # pure Dirichlet Laplacian on m nodes: smallest eigenvalue is
    # (2/h^2) * (1 - cos(pi / (m+1)))
    m, L = 31, 1.0
    h = 2.0 * L / (m - 1)
    e = np.ones(m)
    mat = sp.diags([-e[1:], 2.0 * e, -e[1:]], [-1, 0, 1]).tocsr() / (h * h)
    op = eigen.Operator(matrix=mat, symmetric=True, lower_bound=0.0, order=np.arange(m))
    pair = eigen.principal_eigenpair(op)
    want = 2.0 / (h * h) * (1.0 - math.cos(math.pi / (m + 1)))
    assert pair.value == pytest.approx(want, rel=1e-10)
    assert pair.vector.min() >= 0.0
    assert pair.residual < 1e-8 * max(1.0, abs(pair.value))


def test_rayleigh_quotient_never_beats_principal_value():
    p = ref_params()
    g = build_grid(1, 4.0, 81)
    op = eigen.assemble_symmetric_reduced(p, g)
    lam = eigen.principal_eigenpair(op).value
    rng = np.random.default_rng(2)
    for _ in range(25):
        psi = rng.normal(size=g.m)
        rho = psi @ (op.matrix @ psi) / (psi @ psi)
        assert rho >= lam - 1e-10


def test_value_respects_certified_lower_bound():
    for delta in (0.01, 0.05, 0.5):
        for beta in (0.0, 0.5, 1.0):
            p = ref_params(delta=delta, beta=beta)
            assert eigen.lambda_of(p) >= eigen.spectral_lower_bound(p)


def test_spectral_lower_bound_formula():
    p = ref_params(delta=0.7)
    # symmetric rates cancel (up to absorption in the float sum)
    assert eigen.spectral_lower_bound(p) == pytest.approx(-FIG_RMAX, abs=1e-15)
    q = model.ModelParams(n=1, mu=0.1, rmax1=0.3, rmax2=0.1, beta=0.2,
                          migration=model.General(0.4, 0.1, 0.2, 0.05))
    assert eigen.spectral_lower_bound(q) == min(-0.3 + 0.4 - 0.1, -0.1 + 0.05 - 0.2)


def test_closed_form_when_habitats_coincide():
    # beta = 0 collapses to one quadratic well: lambda = -rmax + n*mu/2
    for n in (1, 2, 3):
        p = ref_params(n=n, beta=0.0)
        lam = eigen.lambda_of(p)
        assert lam == pytest.approx(-FIG_RMAX + n * FIG_MU / 2.0, abs=1e-4)


def test_trait_dimension_adds_the_transverse_load():
    # the axis operator at n traits is the one-trait operator shifted by
    # (n-1) mu/2, and lambda_of adds that shift to one Hermite matrix
    lam1 = eigen.lambda_of(ref_params(n=1))
    for n in (2, 3):
        lam = eigen.lambda_of(ref_params(n=n))
        assert lam == pytest.approx(lam1 + 0.5 * (n - 1) * FIG_MU, abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.05])
@pytest.mark.parametrize("m", [3, 7, 81])
def test_reduced_operator_is_full_blocks_folded_by_reversal(m, delta):
    # on habitat-swap-even pairs (v, rev v) the full operator acts as
    # A11 + A12 P on v, with P the node reversal: the reduced matrix exactly
    p = ref_params(n=2, delta=delta)
    g = build_grid(2, 3.0, m)
    full = eigen.assemble_full(p, g).matrix.toarray()
    fold = full[:m, :m] + full[:m, m:] @ np.eye(m)[::-1]
    reduced = eigen.assemble_symmetric_reduced(p, g).matrix.toarray()
    np.testing.assert_allclose(reduced, fold, rtol=0, atol=1e-14 * np.abs(fold).max())


def test_reduced_and_full_routes_agree():
    # both assemblies discretize the same operator; at well-separated rates
    # the principal value and the mirror structure of the eigenvector must
    # match across the two routes
    p = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                          migration=model.Symmetric(5.0))
    g = build_grid(1, 4.0, 81)
    red = eigen.principal_eigenpair(eigen.assemble_symmetric_reduced(p, g))
    full = eigen.principal_eigenpair(eigen.assemble_full(p, g))
    assert full.value == pytest.approx(red.value, abs=1e-9)
    v1, v2 = full.vector[:g.m], full.vector[g.m:]
    np.testing.assert_allclose(v2, v1[::-1], rtol=0, atol=1e-6 * v1.max())


def test_general_migration_with_equal_rates_matches_symmetric():
    d = 0.35
    g = build_grid(1, 4.0, 81)
    p_sym = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                              migration=model.Symmetric(d))
    p_gen = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                              migration=model.General(d, d, d, d))
    lam_sym = eigen.principal_eigenpair(eigen.assemble_symmetric_reduced(p_sym, g)).value
    lam_gen = eigen.principal_eigenpair(eigen.assemble_full(p_gen, g)).value
    assert lam_gen == pytest.approx(lam_sym, abs=1e-9)


def test_biased_operator_matches_diagonally_similar_symmetric_twin():
    # a one-way-biased system is diagonally similar to a symmetric one with
    # geometric-mean coupling, so the two spectra coincide
    d11, d12, d21, d22 = 0.2, 0.05, 0.15, 0.3
    gm = math.sqrt(d12 * d21)
    base = dict(n=1, mu=0.25, rmax1=0.3, rmax2=0.1, beta=0.4)
    g = build_grid(1, 3.0, 61)
    biased = eigen.assemble_full(
        model.ModelParams(**base, migration=model.General(d11, d12, d21, d22)), g)
    assert not biased.symmetric
    symm = eigen.assemble_full(
        model.ModelParams(**base, migration=model.General(d11, gm, gm, d22)), g)
    assert symm.symmetric
    lam_biased = eigen.principal_eigenpair(biased).value
    lam_twin = eigen.principal_eigenpair(symm).value
    assert lam_biased == pytest.approx(lam_twin, abs=1e-10)


@pytest.mark.parametrize("d12, d21", [(0.02, 0.05), (0.0, 0.05), (0.02, 0.0)],
                         ids=["biased", "one_way_d12_0", "one_way_d21_0"])
def test_nonsymmetric_operator_matches_dense_spectrum(d12, d21):
    # small spectral gap (~0.009): a value that has not converged shows up
    # well above these tolerances; the one-way cases are block-triangular
    p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=0.8 * FIG_RMAX,
                          beta=0.5, migration=model.General(0.05, d12, d21, 0.03))
    op = eigen.assemble_full(p, build_grid(1, 3.0, 61))
    assert not op.symmetric
    dense = scipy.linalg.eigvals(op.matrix.toarray()).real.min()
    pair = eigen.principal_eigenpair(op)
    assert pair.value == pytest.approx(dense, abs=1e-10)
    v = pair.vector
    assert np.abs(op.matrix @ v - pair.value * v).max() <= 1e-8 * max(1.0, abs(pair.value))
    assert v.min() >= 0.0


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("migration, rmax2", [
    (model.Symmetric(0.05), FIG_RMAX),                  # reduced form
    (model.General(0.05, 0.03, 0.03, 0.05), FIG_RMAX),  # full, symmetric
    (model.General(0.05, 0.02, 0.05, 0.03), 0.8 * FIG_RMAX),  # full, biased
], ids=["reduced", "full_symmetric", "full_biased"])
def test_smallest_grids_match_dense_spectrum(m, migration, rmax2):
    # the smallest boxes: three and five nodes, half-bandwidth 2 on six to ten unknowns
    p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=rmax2, beta=0.5,
                          migration=migration)
    g = build_grid(1, 2.0, m)
    mirror = isinstance(migration, model.Symmetric)
    op = (eigen.assemble_symmetric_reduced if mirror else eigen.assemble_full)(p, g)
    pair = eigen.principal_eigenpair(op)
    dense = scipy.linalg.eigvals(op.matrix.toarray()).real.min()
    assert pair.value == pytest.approx(dense, abs=1e-12)
    assert pair.vector.min() >= 0.0


RUNG_CASES = {
    "mirror": (model.Symmetric(0.05), FIG_RMAX),
    "mirror_delta_0": (model.Symmetric(0.0), FIG_RMAX),
    "biased": (model.General(0.05, 0.02, 0.05, 0.03), 0.8 * FIG_RMAX),
    "one_way_d12_0": (model.General(0.05, 0.0, 0.05, 0.03), 0.8 * FIG_RMAX),
    "one_way_d21_0": (model.General(0.05, 0.02, 0.0, 0.03), 0.8 * FIG_RMAX),
    # equal peaks, one-way: a double eigenvalue with a single eigenvector
    "one_way_mirror_tie": (model.General(0.05, 0.03, 0.0, 0.05), FIG_RMAX),
    "no_migration": (model.General(0.05, 0.0, 0.0, 0.03), 0.8 * FIG_RMAX),
}


@pytest.mark.parametrize("m", [3, 5, 61])
@pytest.mark.parametrize("case", sorted(RUNG_CASES))
def test_rung_solve_matches_dense_spectrum_with_evidence(case, m):
    # the symmetric twin's value, the nonnegative vector from inverse
    # iteration, and the evidence each solve carries, on both assemblies of
    # mirror habitats and on the full one otherwise
    migration, rmax2 = RUNG_CASES[case]
    p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=rmax2, beta=0.5,
                          migration=migration)
    g = build_grid(1, 3.0, m)
    mirror = isinstance(migration, model.Symmetric)
    for assemble in ([eigen.assemble_symmetric_reduced] if mirror else []) + [eigen.assemble_full]:
        op = assemble(p, g)
        pair = eigen.principal_eigenpair(op)
        dense = scipy.linalg.eigvals(op.matrix.toarray()).real.min()
        assert pair.value == pytest.approx(dense, abs=1e-10)
        assert pair.vector.min() >= 0.0
        assert pair.residual <= 1e-8
        assert pair.value >= op.lower_bound
        assert pair.iterations <= 3


def test_rung_solve_with_unstored_diagonal_entries():
    # a zero diagonal is not stored, so the shift adds new entries.
    # -(path adjacency) on nine nodes: lambda_0 = -2 cos(pi / 10), sine vector
    e = np.ones(8)
    op = eigen.Operator(matrix=sp.diags([-e, -e], [-1, 1], format="csr"), symmetric=True,
                        lower_bound=-2.0, order=np.arange(9))
    assert op.matrix.diagonal().size == 9 and op.matrix.nnz == 16
    pair = eigen.principal_eigenpair(op)
    assert pair.value == pytest.approx(-2.0 * math.cos(math.pi / 10), abs=1e-14)
    want = np.sin(np.pi * np.arange(1, 10) / 10)
    np.testing.assert_allclose(pair.vector, want / want.max(), rtol=0, atol=1e-12)
    assert pair.residual <= 1e-14 and pair.iterations <= 3


def test_rung_solve_pairs_couplings_past_int32_keys():
    # 46,400 unknowns with int32 indices: the pair key col * size + row of the
    # last coupling exceeds 2^31. A unit diagonal plus the 2 x 2 block
    # [[1, -0.5], [-2, 1]] at the highest indices, whose twin coupling is
    # -sqrt(0.5 * 2) = -1, so lambda_0 = 0 with vector (0.5, 1) on the block.
    n = 46_400
    rows = np.r_[np.arange(n), n - 2, n - 1]
    cols = np.r_[np.arange(n), n - 1, n - 2]
    mat = sp.csr_matrix((np.r_[np.ones(n), -0.5, -2.0], (rows, cols)), shape=(n, n))
    assert mat.indices.dtype == np.int32
    pair = eigen.principal_eigenpair(eigen.Operator(matrix=mat, symmetric=False, lower_bound=-1.0,
                                                    order=np.arange(n)))
    assert pair.value == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(pair.vector[-2:], [0.5, 1.0], rtol=0, atol=1e-14)
    assert pair.vector[:-2].max() <= 1e-14 and pair.residual <= 1e-14


@pytest.mark.parametrize("fmt", ["csc", "coo", "csr_with_duplicates"])
def test_rung_solve_takes_any_sparse_format_and_leaves_it_unchanged(fmt):
    # a biased full operator, so a transposed read would give the left vector
    p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=0.8 * FIG_RMAX, beta=0.5,
                          migration=model.General(0.05, 0.02, 0.05, 0.03))
    op = eigen.assemble_full(p, build_grid(1, 3.0, 61))
    want = eigen.principal_eigenpair(op)
    if fmt == "csr_with_duplicates":  # each entry stored as two halves
        csr = op.matrix
        data = np.repeat(0.5 * csr.data, 2)
        mat = sp.csr_matrix((data, np.repeat(csr.indices, 2), 2 * csr.indptr), shape=csr.shape)
    else:
        mat = op.matrix.asformat(fmt)
    before = (mat.format, mat.nnz)
    pair = eigen.principal_eigenpair(dataclasses.replace(op, matrix=mat))
    assert (mat.format, mat.nnz) == before
    assert pair.value == pytest.approx(want.value, abs=1e-14)
    np.testing.assert_allclose(pair.vector, want.vector, rtol=0, atol=1e-12)
    assert pair.residual <= 1e-14


@pytest.mark.parametrize("migration", [
    None,  # mirror habitats: the reduced operator
    model.General(0.05, 0.03, 0.03, 0.05),
    model.General(0.05, 0.02, 0.05, 0.03),
    model.General(0.05, 0.0, 0.05, 0.03),  # one-way: the twin has no habitat coupling
], ids=["mirror_reduced", "general_equal", "general_biased", "one_way"])
def test_ladder_operators_factor_on_a_band_of_half_width_two(monkeypatch, migration):
    # one band order of A + A^T serves dsbevx and the LU; an order taken from
    # the twin alone would leave a one-way coupling m apart
    bands = []
    factor = eigen.splu

    def spy(band, kl, ku):
        bands.append((kl, ku))
        return factor(band, kl, ku)

    monkeypatch.setattr(eigen, "splu", spy)
    if migration is None:
        p, assemble = ref_params(), eigen.assemble_symmetric_reduced
    else:
        p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=0.8 * FIG_RMAX, beta=0.5,
                              migration=migration)
        assemble = eigen.assemble_full
    for m in (25, 61, 161):
        eigen.principal_eigenpair(assemble(p, build_grid(1, 3.0, m)))
    assert bands == [(2, 2)] * 3


@pytest.mark.parametrize("case", ["mirror", "delta_zero", "general", "general_equal", "one_way",
                                  "one_way_d21", "no_migration"])
def test_band_order_is_scipys_reverse_cuthill_mckee(case):
    # each assembler writes down the order csgraph finds in the structure of
    # A + A^T, so every eigen.csv keeps its bits
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    general = {"general": (0.05, 0.02, 0.05, 0.03), "general_equal": (0.05, 0.03, 0.03, 0.05),
               "one_way": (0.05, 0.0, 0.05, 0.03), "one_way_d21": (0.05, 0.02, 0.0, 0.03),
               "no_migration": (0.05, 0.0, 0.0, 0.03)}
    for m in (3, 5, 7, 61, 161):
        g = build_grid(1, 3.0, m)
        if case in general:
            p = model.ModelParams(n=1, mu=FIG_MU, rmax1=FIG_RMAX, rmax2=0.8 * FIG_RMAX, beta=0.5,
                                  migration=model.General(*general[case]))
            op = eigen.assemble_full(p, g)
        else:
            op = eigen.assemble_symmetric_reduced(ref_params(delta=0.05 * (case == "mirror")), g)
        structure = sp.csr_matrix(abs(op.matrix) + abs(op.matrix.T))
        want = reverse_cuthill_mckee(structure, symmetric_mode=True).tolist()
        assert op.order.tolist() == want, m


def test_operator_order_must_be_a_permutation():
    mat = sp.identity(3, format="csr")
    for order in ([0, 1], [0, 1, 1], [0, 1, 3]):
        with pytest.raises(ValueError, match="permutation of range"):
            eigen.Operator(matrix=mat, symmetric=True, lower_bound=0.0, order=np.array(order))


def evidence_operator(kind):
    if kind == "sign_change":
        # positive couplings: the smallest eigenvector alternates in sign
        e = np.ones(9)
        return eigen.Operator(matrix=sp.diags([e[1:], 2.0 * e, e[1:]], [-1, 0, 1]).tocsr(),
                              symmetric=True, lower_bound=0.0, order=np.arange(9))
    if kind == "below_bound":
        e = np.ones(9)
        return eigen.Operator(matrix=sp.diags([-e[1:], 2.0 * e, -e[1:]], [-1, 0, 1]).tocsr(),
                              symmetric=True, lower_bound=1.0, order=np.arange(9))
    # a three-cycle whose coupling ratios multiply to 64: no diagonal scaling
    # symmetrises it, so the twin's value 1 is not A's value 0.75
    circ = scipy.linalg.circulant([2.0, -0.25, -1.0])
    return eigen.Operator(matrix=sp.csr_matrix(circ), symmetric=False, lower_bound=0.75,
                          order=np.arange(3))


@pytest.mark.parametrize("kind, match", [("sign_change", "sign-changing"),
                                         ("below_bound", "below the certified bound"),
                                         ("not_symmetrisable", "residual")])
def test_rung_solve_raises_without_evidence(kind, match):
    with pytest.raises(eigen.EigenError, match=match):
        eigen.principal_eigenpair(evidence_operator(kind))


def test_eigenpair_and_eigen_csv_are_reproducible(tmp_path):
    # inverse iteration starts from a fixed vector, so repeated solves agree bit for bit
    p = ref_params()
    op = eigen.assemble_symmetric_reduced(p, build_grid(1, 4.0, 97))
    first, second = eigen.principal_eigenpair(op), eigen.principal_eigenpair(op)
    assert first.value == second.value
    np.testing.assert_array_equal(first.vector, second.vector)
    texts = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["eigen", "--out", str(out)]) == 0
        texts.append((out / "eigen.csv").read_bytes())
    assert texts[0] == texts[1]


def test_ladder_is_monotone_and_converges():
    p = ref_params()
    ls, ms = eigen.default_schedules(p)
    res = eigen.lambda_limit(p, ls, ms)
    assert res.converged
    ladder = res.rows[:-1]  # last row is the spacing-refinement solve
    assert len(ladder) >= 2
    for a, b in zip(ladder, ladder[1:]):
        assert b.lambda_L <= a.lambda_L + 1e-6
        assert b.L > a.L
    # refinement row: same box, doubled resolution, then h^2 extrapolation
    assert res.rows[-1].L == ladder[-1].L
    assert res.rows[-1].m == 2 * ladder[-1].m - 1
    extrap = (4.0 * res.rows[-1].lambda_L - ladder[-1].lambda_L) / 3.0
    assert res.lam == pytest.approx(extrap, abs=1e-15)


def test_eigenfield_positive_decaying_and_mirror_linked():
    p = ref_params()
    ls, ms = eigen.default_schedules(p)
    finest = eigen.lambda_limit(p, ls, ms).rows[-1]
    g = build_grid(p.n, finest.L, finest.m)
    v = eigen.principal_eigenpair(eigen.assemble_full(p, g)).vector
    u1, u2 = v[:g.m], v[g.m:]
    assert u1.min() >= 0.0
    assert u1.max() == pytest.approx(1.0)
    assert max(abs(u1[0]), abs(u1[-1])) <= 1e-12  # super-exponential tails
    np.testing.assert_allclose(u2, u1[::-1], rtol=0, atol=1e-8)  # both habitats solved


def test_growth_rate_increases_with_delta():
    lams = [eigen.lambda_of(ref_params(delta=d)) for d in (0.02, 0.06, 0.1)]
    assert lams[0] < lams[1] < lams[2]


def test_assembly_validation():
    g = build_grid(1, 4.0, 81)
    p_gen = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.3, beta=0.5,
                              migration=model.General(0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="Symmetric migration"):
        eigen.assemble_symmetric_reduced(p_gen, g)
    p_tilt = model.ModelParams(n=1, mu=0.3, rmax1=0.3, rmax2=0.2, beta=0.5,
                               migration=model.Symmetric(0.1))
    with pytest.raises(ValueError, match="mirror"):
        eigen.assemble_symmetric_reduced(p_tilt, g)


def test_schedule_validation():
    p = ref_params()
    with pytest.raises(ValueError, match="schedule lengths"):
        eigen.lambda_limit(p, [3.0, 4.0], [61])
    with pytest.raises(ValueError, match="empty schedule"):
        eigen.lambda_limit(p, [], [])


def test_shrinking_box_trips_the_ladder_guard():
    # running the ladder toward a smaller box forces lambda_L upward, which
    # the resolution check must reject rather than extrapolate from
    p = model.ModelParams(n=1, mu=1.0, rmax1=0.3, rmax2=0.3, beta=0.5,
                          migration=model.Symmetric(0.3))
    with pytest.raises(eigen.EigenError, match="increased"):
        eigen.lambda_limit(p, [4.0, 2.0], [81, 41])


# ---------------------------------------------------------------- Hermite route

ROUTE_TOL = 1e-5  # Hermite lambda vs the box ladder, whose bias is a few 1e-6


def sampled_params(seed, count=12, m_d=None):
    """Seeded draws over n, mu, rmax, m_D and the migration pattern:
    Symmetric, General, and General one-way (d12 = 0 or d21 = 0)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        rmax = float(rng.uniform(0.0, 0.2))
        if k % 2 == 0:
            migration, rmax2 = model.Symmetric(float(10.0 ** rng.uniform(-3, 1))), rmax
        else:
            d11, d12, d21, d22 = (float(d) for d in rng.uniform(0.0, 0.2, size=4))
            d12 = 0.0 if k % 6 == 3 else d12
            d21 = 0.0 if k % 6 == 5 else d21
            migration = model.General(d11, d12, d21, d22)
            rmax2 = rmax * float(rng.uniform(0.5, 1.0))
        md = float(rng.uniform(0.0, 2.0)) if m_d is None else m_d
        out.append(model.ModelParams(n=int(rng.integers(1, 4)), mu=float(10.0 ** rng.uniform(-3, -1)),
                                     rmax1=rmax, rmax2=rmax2, beta=model.beta_of(md),
                                     migration=migration))
    return out


def test_hermite_closed_form_at_zero_habitat_difference():
    # one quadratic well: lambda = -rmax + n mu / 2 exactly, for Symmetric
    # and for conservative General rates (arrivals match departures)
    for p in sampled_params(11, m_d=0.0):
        if isinstance(p.migration, model.General):
            d11, _, _, d22 = p.migration.rates
            p = dataclasses.replace(p, rmax2=p.rmax1, migration=model.General(d11, d22, d11, d22))
        assert eigen.lambda_of(p) == pytest.approx(-p.rmax1 + 0.5 * p.n * p.mu, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("delta", [0.0, 0.05, 1000.0])
def test_lambda_of_at_zero_habitat_difference_is_the_closed_form_bit_for_bit(n, delta):
    # at m_D = 0 the mirror band is diagonal, mu (k + 1/2) + delta (1 - (-1)^k),
    # so its lowest entry mu / 2 is lambda_of's value exactly: the benchmark's
    # closed_form_err compares these bits
    for mu in (FIG_MU, 0.1, 1e-2, 1e-3):
        for rmax in (FIG_RMAX, 0.5, -0.2):
            p = model.ModelParams(n=n, mu=mu, rmax1=rmax, rmax2=rmax, beta=0.0,
                                  migration=model.Symmetric(delta))
            assert eigen.lambda_of(p) == hermite.with_constant(p, 0.5 * mu), p


def test_hermite_closed_form_without_migration():
    # delta = 0 decouples the wells, each a shifted oscillator, so lambda is
    # -rmax + n mu / 2 at every habitat difference
    for m_d in (0.0, 0.5, 1.0, 2.0):
        for n in (1, 2, 3):
            p = ref_params(n=n, delta=0.0, beta=model.beta_of(m_d))
            assert eigen.lambda_of(p) == pytest.approx(-FIG_RMAX + 0.5 * n * FIG_MU, abs=1e-12)


def test_hermite_rmax_shift_and_trait_dimension_identities():
    for p in sampled_params(12):
        lam = eigen.lambda_of(p)
        c = 0.03
        raised = dataclasses.replace(p, rmax1=p.rmax1 + c, rmax2=p.rmax2 + c)
        assert lam - eigen.lambda_of(raised) == pytest.approx(c, abs=1e-12)
        lam1 = eigen.lambda_of(dataclasses.replace(p, n=1))
        assert lam == pytest.approx(lam1 + 0.5 * (p.n - 1) * p.mu, abs=1e-12)


def test_hermite_matches_box_ladder():
    # two independent discretizations of one operator
    for p in sampled_params(13):
        ladder = eigen.lambda_limit(p, *eigen.default_schedules(p)).lam
        assert eigen.lambda_of(p) == pytest.approx(ladder, abs=ROUTE_TOL)


def test_hermite_basis_cap_raises():
    # optima 10 apart at width sqrt(mu) = 0.03 need a basis far above the cap
    p = model.ModelParams(n=1, mu=1e-3, rmax1=0.1, rmax2=0.1, beta=5.0,
                          migration=model.Symmetric(0.05))
    with pytest.raises(eigen.EigenError, match="not converged at K = 8192"):
        eigen.lambda_of(p)


def test_lambda_of_keywords():
    # the ladder keywords are accepted and ignored; anything else is an error
    p = ref_params()
    lam = eigen.lambda_of(p)
    assert eigen.lambda_of(p, h_target=0.25, rungs=2, tol_domain=1e-3, richardson=False) == lam
    with pytest.raises(TypeError):
        eigen.lambda_of(p, tol_value=1e-12)
    with pytest.raises(TypeError):
        thresholds.classify(p, tol_value=1e-12)
