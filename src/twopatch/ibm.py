"""Individual-based stochastic counterpart of the two-habitat model.

Non-overlapping generations. Each generation applies, in order:

1. reproduction-selection: an individual with phenotype x in habitat i
   leaves Poisson(exp(r_i(x))) offspring and dies;
2. mutation: each offspring receives Poisson(U) mutations, each an
   independent N(0, lambda_var I_n) displacement added to its phenotype;
3. migration: Poisson(delta * N_i) individuals (capped at N_i, sampled
   uniformly without replacement) move out of habitat i, both directions
   simultaneously.

The IBM runs the density model's own ModelParams: it reads n, beta, delta
and rmax off them, and its mutation step variance is lambda_var = mu^2 / U,
so that U * lambda_var is the density model's diffusive scale mu^2. Both
habitats must be mirror images (symmetric migration, rmax1 == rmax2).

Each stage draws only what changes. Reproduction draws one total per
habitat: independent Poisson(lambda_j) offspring counts have the law of one
Poisson(sum lambda) total whose offspring pick their parents i.i.d. with
probability lambda_j / sum lambda (the colouring theorem; J. F. C. Kingman,
Poisson Processes, 1993, section 5.1). Each parent is drawn by rejection
from uniform proposals: j uniform in [0, N), accepted when u * max lambda <
lambda_j (L. Devroye, Non-Uniform Random Variate Generation, 1986, section
II.3), so a habitat takes N * max lambda / sum lambda proposals per
offspring and N * max lambda <= N * exp(rmax) per generation in
expectation. Mutation thins the Poisson(U) count: an individual mutates
with probability p = 1 - exp(-U), so the M ~ Binomial(N, p) mutants are a
uniform subset, each with a zero-truncated Poisson(U) number of mutations
K, and only they draw a displacement. Migration moves its movers to the
tail of their array in place and builds each new habitat with one
concatenation.

Populations are stored as (N_i, n) float arrays; row order carries no
meaning. Rows are gathered with ``take`` and written through a 1-D view of
the rows as opaque records, which numpy moves far faster than 2-D row
fancy indexing. Reproduction turns each habitat's fitness array into its
lambda in place and gathers each proposal chunk's accepted rows straight
into the preallocated offspring array, so a generation holds about
8 (2n + 1) bytes per individual at its peak: the old row, the offspring's
row and one lambda (40 bytes for n = 2, 2.5 times the rows themselves),
plus proposal-chunk temporaries of fixed size. All draws come from one
numpy Generator in a fixed order (the offspring totals of habitat 1 and 2;
then the parent proposals of habitat 1, then of habitat 2, each chunk its
indices then its uniforms; then per habitat the mutant count, the mutant
indices, their K and their displacements; then the mover count and the
movers of habitat 1, then of habitat 2), so a run is bit-reproducible
given its seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .model import ModelParams
from .pde import Trajectory


class IbmOverflowError(RuntimeError):
    """Population exceeded the configured cap (runaway growth)."""


@dataclass(frozen=True)
class IbmParams:
    """The individual-based model of a mirror ModelParams.

    Attributes:
        model: the density model's parameters, with symmetric migration and
            rmax1 == rmax2. The IBM reads n, beta, delta
            (model.migration.delta) and rmax (model.rmax1) off them.
        U: expected mutations per individual per generation, finite and > 0,
            with lambda_var = mu^2 / U finite.
        N0: founding individuals per habitat.
        T: generations to simulate.
        cap: abort threshold on total population size.
    """

    model: ModelParams
    U: float
    N0: int
    T: int
    cap: int = 10_000_000

    def __post_init__(self) -> None:
        errors = []
        if not hermite.is_mirror(self.model):
            errors.append("the individual-based model needs migration = symmetric "
                          "and rmax1 == rmax2")
        if not self.U > 0:
            errors.append(f"the individual-based model needs U > 0, got {self.U!r}")
        elif not math.isfinite(self.U):
            errors.append(f"U must be finite, got {self.U!r}")
        else:
            try:
                variance = self.lambda_var
            except OverflowError:  # mu ** 2 beyond the float range
                variance = math.inf
            if not math.isfinite(variance):
                errors.append(f"the mutation step variance mu^2 / U must be finite, "
                              f"got mu = {self.model.mu!r}, U = {self.U!r}")
        if not isinstance(self.N0, int) or self.N0 < 1:
            errors.append(f"N0 must be an integer >= 1, got {self.N0!r}")
        if not isinstance(self.T, int) or self.T < 0:
            errors.append(f"T must be an integer >= 0, got {self.T!r}")
        if not isinstance(self.cap, int) or self.cap < 1:
            errors.append(f"cap must be an integer >= 1, got {self.cap!r}")
        if errors:
            raise ValueError("invalid IbmParams: " + "; ".join(errors))

    @property
    def lambda_var(self) -> float:
        """Variance of a single mutation step per trait: mu^2 / U."""
        return self.model.mu ** 2 / self.U


@dataclass
class IbmState:
    """Populations of both habitats plus the generation counter and RNG."""

    pop1: np.ndarray
    pop2: np.ndarray
    generation: int
    rng: np.random.Generator


def _fitness(params: IbmParams, habitat: int, pop: np.ndarray) -> np.ndarray:
    """rmax - |x - optimum|^2 / 2 per row, in 1-D buffers. The transverse
    squares are summed first, in column order, as a sum over the columns is."""
    mp = params.model
    sq = np.subtract(pop[:, 0], -mp.beta if habitat == 1 else mp.beta)
    np.square(sq, out=sq)
    if mp.n > 1:
        load = np.square(pop[:, 1])
        for j in range(2, mp.n):
            load += np.square(pop[:, j])
        sq += load
    sq *= -0.5
    sq += mp.rmax1
    return sq


def _record(fitness: list[np.ndarray]) -> tuple[int, int, float, float]:
    """(N1, N2, rbar1, rbar2) of habitats with these fitness arrays; rbar is
    the mean fitness, nan for an empty habitat."""
    return (fitness[0].size, fitness[1].size,
            *(float(np.mean(r)) if r.size else math.nan for r in fitness))


def init_clonal(params: IbmParams, seed=0) -> IbmState:
    """Both habitats founded by N0 identical individuals at the midpoint
    between the optima (the origin)."""
    return IbmState(
        pop1=np.zeros((params.N0, params.model.n)),
        pop2=np.zeros((params.N0, params.model.n)),
        generation=0,
        rng=np.random.default_rng(seed),
    )


# Largest batch of parent proposals drawn at once, so that a large habitat
# needs no proposal temporaries of its own size.
_PROPOSAL_CHUNK = 1 << 16


def _records(pop: np.ndarray) -> np.ndarray:
    """1-D view of the rows of ``pop`` as opaque records of n floats.

    ``pop``'s last axis must be contiguous (the stages pass C-ordered arrays).
    Moving rows through this view costs a fraction of 2-D row indexing.
    """
    return pop.view(np.dtype((np.void, pop.itemsize * pop.shape[1])))[:, 0]


def _offspring(rng: np.random.Generator, pop: np.ndarray, lam: np.ndarray,
               total: int) -> np.ndarray:
    """``total`` rows of ``pop``, each an i.i.d. parent j drawn with probability
    lam[j] / sum(lam), as a new C-ordered (total, n) array.

    Rejection from uniform proposals: j uniform in [0, N) is accepted when a
    uniform u satisfies u < lam[j] / max(lam). Proposals come in chunks sized
    to the expected need, at most _PROPOSAL_CHUNK, and each chunk's accepted
    rows are gathered straight into the new array. ``lam`` is overwritten
    with lam / max(lam); ``pop`` is first copied to C order if it is not.
    """
    new = np.empty((total, pop.shape[1]), dtype=pop.dtype)
    if total == 0:
        return new
    rows, dest = _records(np.ascontiguousarray(pop)), _records(new)
    lam /= lam.max()
    acceptance = float(lam.mean())
    filled = 0
    while filled < total:
        need = total - filled
        size = min(_PROPOSAL_CHUNK, math.ceil(need / acceptance))
        j = rng.integers(lam.size, size=size)
        j = np.compress(rng.random(size) < lam.take(j), j)[:need]
        # j is in range; mode="raise" would buffer the whole output chunk
        rows.take(j, out=dest[filled:filled + j.size], mode="clip")
        filled += j.size
    return new


def reproduction_selection(state: IbmState, params: IbmParams) -> tuple[int, int, float, float]:
    """Replace each habitat by its offspring, Poisson(exp(r)) per parent.

    Drawn as one Poisson(sum exp(r)) total per habitat whose offspring copy
    i.i.d. parents picked with probability proportional to exp(r), so the
    offspring rows come in random order. Returns the parents' record
    (N1, N2, rbar1, rbar2), read off their fitness arrays before each is
    turned into exp(r) in place. Each array is dropped once its habitat's
    parents are drawn, so no exp(r) array outlives reproduction. Raises
    IbmOverflowError, leaving the populations untouched, when the offspring
    would exceed ``cap``.
    """
    lams = [_fitness(params, 1, state.pop1), _fitness(params, 2, state.pop2)]
    record = _record(lams)
    for lam in lams:
        np.exp(lam, out=lam)
    totals = [int(state.rng.poisson(lam.sum())) for lam in lams]
    total = totals[0] + totals[1]
    if total > params.cap:
        raise IbmOverflowError(
            f"population {total} exceeds cap {params.cap} at generation {state.generation}")
    state.pop1 = _offspring(state.rng, state.pop1, lams.pop(0), totals[0])
    state.pop2 = _offspring(state.rng, state.pop2, lams.pop(0), totals[1])
    return record


@functools.cache
def _truncated_poisson_cdf(U: float) -> np.ndarray:
    """CDF of Poisson(U) conditioned on K >= 1, at K = 1, 2, ...

    The table stops once the remaining upper tail is below 2**-53 (bounded
    by the geometric series of the pmf ratio U / (k + 1) < 1), and is
    normalised so that its last entry is exactly 1. The pmf runs in log
    space, so any finite U > 0 works. Cached per U and read-only.
    """
    log_pk = math.log(U) - U - math.log(-math.expm1(-U))  # k = 1
    pmf = []
    k = 1
    while True:
        pk = math.exp(log_pk)
        pmf.append(pk)
        ratio = U / (k + 1)
        if ratio < 1.0 and pk * ratio / (1.0 - ratio) < 2.0**-53:
            break
        k += 1
        log_pk += math.log(U / k)
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def mutation(state: IbmState, params: IbmParams) -> None:
    """Add the compound-Poisson mutation displacement to every individual.

    K ~ Poisson(U) mutations, each N(0, lambda_var I), sum to a
    N(0, K lambda_var I) displacement, drawn as sqrt(K lambda_var) * N(0, I).
    Only the individuals with K > 0 are drawn: M ~ Binomial(N, 1 - exp(-U))
    uniform mutants, each with K from the zero-truncated Poisson(U) by the
    inverse CDF of one uniform. The mutants' rows are written in place; a
    habitat array that is not C-ordered is first replaced by a C-ordered copy.
    """
    p_mutant = -math.expm1(-params.U)
    cdf = _truncated_poisson_cdf(params.U)
    rng = state.rng
    pops = [np.ascontiguousarray(state.pop1), np.ascontiguousarray(state.pop2)]
    state.pop1, state.pop2 = pops
    for pop in pops:
        n_ind = pop.shape[0]
        if n_ind == 0:
            continue
        m = int(rng.binomial(n_ind, p_mutant))
        if m == 0:
            continue
        idx = rng.choice(n_ind, m, replace=False, shuffle=False)
        k = np.searchsorted(cdf, rng.random(m), side="right") + 1
        rows = rng.standard_normal((m, params.model.n))
        rows *= np.sqrt(k * params.lambda_var)[:, None]
        rows += pop.take(idx, axis=0)
        _records(pop)[idx] = _records(rows)


def _movers_to_tail(rng: np.random.Generator, pop: np.ndarray, rate: float) -> int:
    """Draw Poisson(rate * N) movers (capped at N), uniform without
    replacement, and swap them into the last rows of ``pop`` in place.

    Returns the number of movers m. Movers already in the tail stay; each
    mover in the head trades rows with a non-mover in the tail, so the work
    is O(m).
    """
    n_ind = pop.shape[0]
    if n_ind == 0:
        return 0
    m = min(int(rng.poisson(rate * n_ind)), n_ind)
    if m == 0:
        return 0
    idx = rng.choice(n_ind, m, replace=False, shuffle=False)
    head = n_ind - m
    in_tail = idx >= head
    stayers_in_tail = np.ones(m, dtype=bool)
    stayers_in_tail[idx[in_tail] - head] = False
    src = idx[~in_tail]
    dst = np.flatnonzero(stayers_in_tail) + head
    rows = _records(pop)
    rows[src], rows[dst] = rows[dst], rows[src]
    return m


def migration(state: IbmState, params: IbmParams) -> None:
    """Swap Poisson(delta * N_i) uniform individuals, both directions at once.

    Draw sizes are capped at the current population; totals are conserved
    exactly.
    """
    pop1, pop2 = np.ascontiguousarray(state.pop1), np.ascontiguousarray(state.pop2)
    n1, n2 = pop1.shape[0], pop2.shape[0]
    delta = params.model.migration.delta
    m1 = _movers_to_tail(state.rng, pop1, delta)
    m2 = _movers_to_tail(state.rng, pop2, delta)
    state.pop1 = np.concatenate([pop1[:n1 - m1], pop2[n2 - m2:]], axis=0)
    state.pop2 = np.concatenate([pop2[:n2 - m2], pop1[n1 - m1:]], axis=0)


def step(state: IbmState, params: IbmParams) -> tuple[int, int, float, float]:
    """Advance one generation in place; returns the parents' record, as
    reproduction_selection does."""
    record = reproduction_selection(state, params)
    mutation(state, params)
    migration(state, params)
    state.generation += 1
    return record


def run(params: IbmParams, seed=0) -> Trajectory:
    """Simulate T generations from the clonal founding state.

    Returns a Trajectory sampled once per generation (t = 0 ... T); rbar is
    the population mean fitness, nan once a habitat is empty. An extinct
    population stays extinct and keeps recording zeros. Each generation's
    record comes from the fitness its reproduction evaluates; only the
    final state's fitness is evaluated for the record alone.
    """
    state = init_clonal(params, seed)
    rec = [step(state, params) for _ in range(params.T)]
    rec.append(_record([_fitness(params, 1, state.pop1), _fitness(params, 2, state.pop2)]))
    arr = np.asarray(rec, dtype=float)
    return Trajectory(
        t=np.arange(params.T + 1, dtype=float),
        N1=arr[:, 0],
        N2=arr[:, 1],
        rbar1=arr[:, 2],
        rbar2=arr[:, 3],
        extinct=bool(arr[-1, 0] + arr[-1, 1] == 0),
    )


@dataclass
class ReplicateSummary:
    """Mean total-population trajectory over replicates (extinct runs count 0)."""

    t: np.ndarray
    n_total_mean: np.ndarray
    trajectories: list[Trajectory]


def run_replicates(params: IbmParams, seeds) -> ReplicateSummary:
    """Run one replicate per entry of seeds and average total population.

    Each seed may be anything numpy's default_rng accepts; pass e.g.
    [(master, k) for k in range(R)] to derive independent replicate streams
    from a master seed.
    """
    trajectories = [run(params, seed) for seed in seeds]
    if not trajectories:
        raise ValueError("run_replicates needs at least one seed")
    totals = np.stack([tr.n_total() for tr in trajectories])
    return ReplicateSummary(
        t=trajectories[0].t.copy(),
        n_total_mean=totals.mean(axis=0),
        trajectories=trajectories,
    )
