"""Schmidt spectra in compressed form, and models for state sequences.

A bipartite pure state is determined up to local unitaries by its Schmidt
coefficients.  This module stores the squared coefficients (a probability
distribution) in compressed form: distinct values paired with integer
multiplicities.  Multiplicities are exact Python integers, so tensor powers
whose degeneracies are huge binomial counts remain representable long after
the expanded dimension has left the double-precision range.

Probabilities themselves are double floats.  An atom whose probability
falls below the smallest normal double (possible for i.i.d. powers beyond a
few hundred copies with skewed bases) is dropped at generation time: a
subnormal probability keeps too few significant bits for its rate, and one
that underflows to zero keeps none.  (At n = 1500, IID(0.9, 0.1) has 17
subnormal atoms; the last was stored as 5e-324, so its rate came out
0.49629 nats against an exact 0.49647.)  The mass the dropped atoms carry is
not negligible in general: the dropped type classes of IID(0.9, 0.1) hold
about 1.1e-34 at n = 1200, 7.0e-16 at n = 1500 and 0.026 at n = 2000
(mpmath).  While the kept mass stays
within MASS_TOL of 1 only the extreme quantiles of the self-information
distribution are affected; beyond that, generation raises a
BudgetExceededError naming the `iid_underflow_mass` budget.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

MASS_TOL = 1e-12
MERGE_RTOL = 1e-12
DEFAULT_MAX_TYPE_CLASSES = 1_000_000
DEFAULT_MAX_EXPANDED_DIM = 1 << 14

# exp arguments beyond this overflow double precision
_EXP_LIMIT = 700.0


class BudgetExceededError(RuntimeError):
    """An enumeration or expansion budget was hit.  Names the budget."""

    def __init__(self, budget: str, needed, limit):
        super().__init__(f"budget {budget} exceeded: need {needed}, limit {limit}")
        self.budget = budget
        self.needed = needed
        self.limit = limit


def _mass_term(p: float, mult: int) -> float:
    # mult can exceed the float range; fall back to exp/log (math.log is
    # exact-ish for arbitrarily large ints)
    try:
        return p * mult
    except OverflowError:
        return math.exp(math.log(p) + math.log(mult))


# ---------------------------------------------------------------------------
# Exact dyadic arithmetic: finite doubles are integers over powers of two


def _dyadic_exponent(x: float) -> int:
    return x.as_integer_ratio()[1].bit_length() - 1


def _scaled(x: float, e: int) -> int:
    num, den = x.as_integer_ratio()
    return num << (e - (den.bit_length() - 1))


def _scaled_atoms(*spectra: Spectrum) -> tuple[int, list[list[int]]]:
    """The common exponent e of the spectra's probabilities, and each
    spectrum's probabilities times 2**e, from one as_integer_ratio per atom."""
    ratios = [[p.as_integer_ratio() for p, _ in s.atoms] for s in spectra]
    e = max((den.bit_length() - 1 for rs in ratios for _, den in rs), default=0)
    return e, [[num << (e + 1 - den.bit_length()) for num, den in rs] for rs in ratios]


def cumulative_mass(atoms: Iterable[tuple[float, int]]) -> Iterator[float]:
    """Yield the mass of each prefix of `atoms`, one value per atom.

    The i-th value is math.fsum of the first i + 1 mass terms, bit for bit:
    the running sum is held exactly as one integer over 2**e, and each value
    is its correctly rounded quotient.  k atoms cost O(k) big-int adds.
    """
    acc = e = 0
    den = 1
    for p, m in atoms:
        term = _mass_term(p, m)
        te = _dyadic_exponent(term)
        if te > e:
            acc <<= te - e
            e = te
            den = 1 << e
        acc += _scaled(term, e)
        yield acc / den


@dataclass(frozen=True)
class Spectrum:
    """Compressed probability spectrum: descending (probability, multiplicity) atoms.

    Invariants: probabilities strictly positive and strictly decreasing across
    atoms, multiplicities positive integers, total mass 1 within a small
    tolerance.  Use :meth:`from_atoms` to construct; it sorts, merges equal
    values and validates.
    """

    atoms: tuple[tuple[float, int], ...]
    total_dim: int

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[float, int]], *, mass_tol: float = MASS_TOL) -> "Spectrum":
        cleaned = []
        for p, m in pairs:
            p = float(p)
            if not isinstance(m, int):
                if isinstance(m, float) and m.is_integer():
                    m = int(m)
                else:
                    raise ValueError(f"multiplicity must be a positive integer, got {m!r}")
            if m <= 0:
                raise ValueError(f"multiplicity must be positive, got {m}")
            if math.isnan(p) or p < 0.0:
                raise ValueError(f"probability must be nonnegative, got {p!r}")
            if p == 0.0:
                continue  # zero atoms are dropped
            cleaned.append((p, m))
        if not cleaned:
            raise ValueError("spectrum has no positive atoms")
        cleaned.sort(key=lambda t: -t[0])
        merged: list[list] = []
        for p, m in cleaned:
            if merged and merged[-1][0] - p <= MERGE_RTOL * merged[-1][0]:
                merged[-1][1] += m
            else:
                merged.append([p, m])
        mass = math.fsum(_mass_term(p, m) for p, m in merged)
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"spectrum mass {mass!r} deviates from 1 beyond tolerance {mass_tol}")
        atoms = tuple((p, m) for p, m in merged)
        return cls(atoms=atoms, total_dim=sum(m for _, m in atoms))

    @classmethod
    def from_probs(cls, values: Sequence[float], *, mass_tol: float = MASS_TOL) -> "Spectrum":
        return cls.from_atoms([(v, 1) for v in values], mass_tol=mass_tol)

    def mass(self) -> float:
        return math.fsum(_mass_term(p, m) for p, m in self.atoms)

    def rates(self, n: int) -> list[float]:
        """Self-information rates -(1/n) ln p per atom, ascending."""
        if n < 1:
            raise ValueError("n must be a positive integer")
        return [-math.log(p) / n + 0.0 for p, _ in self.atoms]

    def to_json_dict(self) -> dict:
        return {"atoms": [[p, m] for p, m in self.atoms]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Spectrum":
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError("spectrum JSON must be an object with an 'atoms' key")
        return cls.from_atoms([(float(p), int(m)) for p, m in obj["atoms"]])

    def to_text(self) -> str:
        return "".join(f"{p!r} {m}\n" for p, m in self.atoms)

    @classmethod
    def from_text(cls, text: str) -> "Spectrum":
        pairs = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'probability multiplicity' per line, got {line!r}")
            pairs.append((float(parts[0]), int(parts[1])))
        return cls.from_atoms(pairs)


def entropy(s: Spectrum) -> float:
    """Shannon entropy in nats of the expanded distribution."""
    # + 0.0 keeps a point spectrum at 0.0 rather than -0.0
    return -math.fsum(_mass_term(p, m) * math.log(p) for p, m in s.atoms) + 0.0


def expand(s: Spectrum, max_expanded_dim: int = DEFAULT_MAX_EXPANDED_DIM) -> np.ndarray:
    """Expanded probability vector, descending.  Guarded by an expansion budget."""
    if s.total_dim > max_expanded_dim:
        raise BudgetExceededError("max_expanded_dim", s.total_dim, max_expanded_dim)
    return np.repeat([p for p, _ in s.atoms], [m for _, m in s.atoms])


# ---------------------------------------------------------------------------
# Schmidt decomposition of an amplitude matrix


class AmplitudeMatrix:
    """Complex amplitude matrix C[i, j] of a bipartite pure state, unit Frobenius norm."""

    def __init__(self, entries):
        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"amplitude matrix must be 2-D and nonempty, got shape {m.shape}")
        sq = float(np.sum(np.abs(m) ** 2))
        if abs(sq - 1.0) > 1e-10:
            raise ValueError(f"amplitude matrix is not normalized: squared norm {sq!r}")
        self.entries = m

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def schmidt_from_amplitudes(amps) -> Spectrum:
    """Schmidt spectrum (squared singular values) of an amplitude matrix.

    Singular values below 1e-12 of the largest are treated as exact zeros.
    """
    if not isinstance(amps, AmplitudeMatrix):
        amps = AmplitudeMatrix(amps)
    svals = np.linalg.svd(amps.entries, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    probs = [float(s) ** 2 for s in svals if float(s) > 1e-12 * top]
    return Spectrum.from_probs(probs, mass_tol=1e-10)


# ---------------------------------------------------------------------------
# Sequence models


def _compositions(n: int, k: int):
    # all k-tuples of nonnegative ints summing to n, first coordinate descending
    if k == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def _multinomial(n: int, counts: Sequence[int]) -> int:
    out = 1
    rem = n
    for c in counts:
        out *= math.comb(rem, c)
        rem -= c
    return out


def iid_spectrum(base: Spectrum, n: int, *, max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES) -> Spectrum:
    """Spectrum of the n-fold tensor power of `base`, in compressed type-class form.

    There is one candidate atom per composition of n over the base atoms; the
    atom count is capped by `max_type_classes` before enumeration starts.
    Atoms below the smallest normal double (subnormal or 0.0) are dropped;
    when the mass left deviates from 1 by more than MASS_TOL, the
    `iid_underflow_mass` budget is exceeded.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = len(base.atoms)
    n_classes = math.comb(n + k - 1, k - 1)
    if n_classes > max_type_classes:
        raise BudgetExceededError("max_type_classes", n_classes, max_type_classes)
    pairs = []
    for comp in _compositions(n, k):
        prob = 1.0
        mult = _multinomial(n, comp)
        for (pv, pm), c in zip(base.atoms, comp):
            if c:
                prob *= pv**c
                if pm != 1:
                    mult *= pm**c
        if prob >= sys.float_info.min:
            pairs.append((prob, mult))
    if len(pairs) < n_classes:
        lost = 1.0 - math.fsum(_mass_term(p, m) for p, m in pairs)
        if abs(lost) > MASS_TOL:
            raise BudgetExceededError("iid_underflow_mass", lost, MASS_TOL)
    return Spectrum.from_atoms(pairs)


def maxent_spectrum(rank: int) -> Spectrum:
    """Flat spectrum of a maximally entangled state of the given Schmidt rank."""
    if rank < 1:
        raise ValueError("Schmidt rank must be a positive integer")
    # 1/rank must be a normal double, as iid_spectrum requires of its atoms
    if rank > 1 << 1022:
        raise BudgetExceededError("max_maxent_rank", rank, 1 << 1022)
    return Spectrum.from_atoms([(1.0 / rank, rank)])


def maxent_rank(rate: float, n: int) -> int:
    """Schmidt rank ceil(e^(n*rate)) for a flat sequence at the given rate.

    A relative 1e-12 downward nudge is applied before the ceiling so that
    float dust in exp does not bump an exact power across the integer
    boundary (e.g. exp(5*ln 2) evaluates slightly above 32).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    x = n * rate
    if x > _EXP_LIMIT:
        raise BudgetExceededError("max_maxent_exponent", x, _EXP_LIMIT)
    v = math.exp(x)
    return max(1, math.ceil(v * (1.0 - 1e-12)))


@dataclass(frozen=True)
class IID:
    """Tensor powers of a fixed base spectrum."""

    base: Spectrum


@dataclass(frozen=True)
class MaxEnt:
    """Flat spectra of rank ceil(e^(n*rate)); rate in nats per copy."""

    rate: float


@dataclass(frozen=True)
class MaxEntExplicit:
    """Flat spectra with an explicitly supplied rank for each n."""

    rank_fn: Callable[[int], int]


@dataclass(frozen=True)
class Mixture:
    """Weighted direct sum of component models (block-diagonal reduced state)."""

    components: tuple[tuple[float, "SequenceModel"], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        ws = [w for w, _ in self.components]
        if any(w <= 0 for w in ws):
            raise ValueError("mixture weights must be strictly positive")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {math.fsum(ws)!r}, expected 1")


@dataclass(frozen=True)
class Explicit:
    """A finite, explicitly listed sequence of spectra; n is 1-based."""

    spectra: tuple[Spectrum, ...]


SequenceModel = Union[IID, MaxEnt, MaxEntExplicit, Mixture, Explicit]


def generate(model: SequenceModel, n: int, *, max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES) -> Spectrum:
    """Spectrum of the n-th element of the modeled sequence."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if isinstance(model, IID):
        return iid_spectrum(model.base, n, max_type_classes=max_type_classes)
    if isinstance(model, MaxEnt):
        return maxent_spectrum(maxent_rank(model.rate, n))
    if isinstance(model, MaxEntExplicit):
        rank = model.rank_fn(n)
        if not isinstance(rank, int) or rank < 1:
            raise ValueError(f"rank function must return a positive integer, got {rank!r}")
        return maxent_spectrum(rank)
    if isinstance(model, Mixture):
        pairs = []
        for w, sub in model.components:
            s = generate(sub, n, max_type_classes=max_type_classes)
            pairs.extend((w * p, m) for p, m in s.atoms)
        return Spectrum.from_atoms(pairs)
    if isinstance(model, Explicit):
        if n > len(model.spectra):
            raise ValueError(f"explicit sequence has {len(model.spectra)} entries, asked for n={n}")
        return model.spectra[n - 1]
    raise TypeError(f"unknown sequence model {model!r}")


def model_from_json_dict(obj: dict) -> SequenceModel:
    """Parse a sequence model from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("model JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "iid":
        return IID(Spectrum.from_json_dict(obj["base"]))
    if kind == "maxent":
        return MaxEnt(float(obj["rate"]))
    if kind == "maxent_explicit":
        ranks = [int(r) for r in obj["ranks"]]

        def rank_fn(n: int, _ranks=tuple(ranks)) -> int:
            if n > len(_ranks):
                raise ValueError(f"explicit rank list has {len(_ranks)} entries, asked for n={n}")
            return _ranks[n - 1]

        return MaxEntExplicit(rank_fn)
    if kind == "mixture":
        comps = tuple((float(w), model_from_json_dict(sub)) for w, sub in obj["components"])
        return Mixture(comps)
    if kind == "explicit":
        return Explicit(tuple(Spectrum.from_json_dict(s) for s in obj["spectra"]))
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str) -> SequenceModel:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    # a bare spectrum file acts as the n=1 entry of an explicit sequence
    if isinstance(obj, dict) and "atoms" in obj and "kind" not in obj:
        return Explicit((Spectrum.from_json_dict(obj),))
    return model_from_json_dict(obj)
