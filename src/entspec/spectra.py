"""Schmidt spectra in compressed form, and models for state sequences.

A bipartite pure state is determined up to local unitaries by its Schmidt
coefficients.  This module stores the squared coefficients (a probability
distribution) in compressed form: distinct values paired with integer
multiplicities.  Multiplicities are exact Python integers, so tensor powers
whose degeneracies are huge binomial counts remain representable long after
the expanded dimension has left the double-precision range.

Probabilities themselves are double floats, and every atom's is a normal
double.  Which atoms a spectrum keeps is one rule, `_kept_atoms`, which
`Spectrum.from_atoms` applies: it drops zero and subnormal atoms, and the mass
check fails if they carried more than the tolerance.  A subnormal probability
keeps too few significant bits for its rate, and one that underflows to zero
keeps none.  So a multiplicity m stays below (1 + tol)/p < 2**1023, and p * m,
or p times any partial count, is a finite double: there is no exp/log route.
Generation makes such atoms (i.i.d. powers beyond a few hundred copies with
skewed bases, mixture components with a small weight), and their mass is not
negligible in general: the dropped type classes of IID(0.9, 0.1) hold about
1.1e-34 at n = 1200, 7.0e-16 at n = 1500 and 0.026 at n = 2000 (mpmath).  When
the mass check fails after the rule dropped atoms, `_normal_spectrum` names
the `iid_underflow_mass` budget in a BudgetExceededError.

Only the dense helpers (`expand`, `AmplitudeMatrix`,
`schmidt_from_amplitudes`) use NumPy, and they import it when they run:
importing this module does not load it.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
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


def _integer(x, what: str) -> int:
    """x as an int: integral floats convert; bools and anything else that is
    not an integer raise a ValueError naming `what`."""
    if isinstance(x, bool) or not (isinstance(x, int) or isinstance(x, float) and x.is_integer()):
        raise ValueError(f"{what} must be a positive integer, got {x!r}")
    return int(x)


def _real(x, what: str) -> float:
    """x as a float: bools, strings and anything else that is not a real
    number raise a ValueError naming `what`, as does an integer beyond the
    double range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} must lie in the double range, got {x!r}") from None


def _listed(x, what: str) -> list:
    """x, which must be a list; anything else raises a ValueError naming `what`."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Exact dyadic arithmetic: finite doubles are integers over powers of two


def _scaled_atoms(*spectra: Spectrum) -> tuple[int, list[list[int]]]:
    """The common exponent e of the spectra's probabilities, and each
    spectrum's probabilities times 2**e.

    e is the largest dyadic exponent of any probability, the log2 of its
    as_integer_ratio denominator.  A normal double f * 2**x (0.5 <= f < 1)
    has one of at most 53 - x, and x never falls towards the head of a
    descending atom list, so each spectrum is read from its smallest atom up
    only while that bound exceeds the e found so far: a few atoms, not k.
    The ints are then made in one pass that shifts each numerator and holds
    nothing per atom.
    """
    e = 0
    for s in spectra:
        for p, _ in reversed(s.atoms):
            if 53 - math.frexp(p)[1] <= e:
                break
            e = max(e, p.as_integer_ratio()[1].bit_length() - 1)
    return e, [
        [num << (e + 1 - den.bit_length()) for num, den in (p.as_integer_ratio() for p, _ in s.atoms)]
        for s in spectra
    ]


def cumulative_mass(atoms: Iterable[tuple[float, int]]) -> Iterator[float]:
    """Yield the mass of each prefix of `atoms`, one value per atom.

    The i-th value is math.fsum of the first i + 1 mass terms p * m (finite, as
    in every spectrum), bit for bit: the running sum is one exact integer over
    2**e, and each value is its correctly rounded quotient.  k atoms cost O(k).
    """
    acc = e = 0
    scale = 1
    for p, m in atoms:
        num, den = (p * m).as_integer_ratio()
        te = den.bit_length() - 1
        if te > e:
            acc <<= te - e
            e = te
            scale = den
        acc += num << (e - te)
        yield acc / scale


def _kept_atoms(pairs: Iterable[tuple[float, int]]) -> tuple[list[tuple[float, int]], bool]:
    """The pairs a spectrum keeps, and whether any was dropped: see from_atoms."""
    tiny = sys.float_info.min
    if type(pairs) is list:
        # the tuple test comes before unpacking, so a pair that is an
        # iterator is unpacked only once, by the loop below
        for pair in pairs:
            if type(pair) is not tuple:
                break
            p, m = pair
            if type(p) is not float or type(m) is not int or m <= 0 or not p >= tiny:
                break
        else:
            return pairs, False
    cleaned = []
    dropped = False
    for pair in pairs:
        p, m = pair
        if type(p) is not float or type(m) is not int or type(pair) is not tuple:
            pair = p, m = _real(p, "probability"), _integer(m, "multiplicity")
        if m <= 0:
            raise ValueError(f"multiplicity must be positive, got {m}")
        if p >= tiny:
            cleaned.append(pair)
        elif p >= 0.0:  # zero or subnormal
            dropped = True
        else:
            raise ValueError(f"probability must be nonnegative, got {p!r}")
    return cleaned, dropped


@dataclass(frozen=True)
class Spectrum:
    """Compressed probability spectrum: descending (probability, multiplicity) atoms.

    Invariants: probabilities normal doubles, strictly decreasing across
    atoms, multiplicities positive integers, total mass 1 within a small
    tolerance.  Use :meth:`from_atoms` to construct; it sorts, merges equal
    values and validates.
    """

    atoms: tuple[tuple[float, int], ...]
    total_dim: int

    @cached_property
    def prefix_table(self) -> tuple[list[int], list[float]]:
        """Cumulative multiplicities and `cumulative_mass` values, one per atom.

        Built on first use, at O(k) big-int adds for k atoms, and kept on
        the instance: the spectrum is immutable, so the table never goes
        stale.
        """
        return list(accumulate(m for _, m in self.atoms)), list(cumulative_mass(self.atoms))

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[float, int]], *, mass_tol: float = MASS_TOL) -> "Spectrum":
        """Zero and subnormal atoms are dropped, so every p * m is a finite double; the
        mass check counts what they carried, and fails for an m beyond the double range.

        A list passed in is never reordered.  When all its pairs are already
        (float, int) tuples of normal probability and positive multiplicity,
        it is scanned and used as it is; any other input is read into a new
        list.  A sorted copy is merged in one pass.  When nothing merged, the
        mass and the dimension are summed over the list in input order, where
        the pairs' tuples, floats and ints lie in memory in the order they
        were made (about twice as fast as in sorted order on the 31,626 type
        classes of IID(0.6, 0.3, 0.1) at n = 250); otherwise over the merged
        atoms.  k pairs cost a validating pass, one sort and one merge pass,
        then the two sums over the k pairs or the fewer merged atoms.  Besides
        the atoms tuple, it holds the sorted copy and the merged list, and the
        new list when the input was read into one.
        """
        return cls._from_kept(_kept_atoms(pairs)[0], mass_tol)

    @classmethod
    def _from_kept(cls, cleaned: list[tuple[float, int]], mass_tol: float = MASS_TOL) -> "Spectrum":
        """from_atoms of the pairs `_kept_atoms` kept: sort, merge, check the mass."""
        if not cleaned:
            raise ValueError("spectrum has no positive atoms of normal probability")
        ordered = cleaned[:]
        ordered.sort(key=itemgetter(0), reverse=True)
        # one pass: a run of values within MERGE_RTOL of its first (largest)
        # value becomes one atom at that value; a run of one keeps its pair
        merged = []
        run = iter(ordered)
        first = next(run)
        head, mult = first
        tol = MERGE_RTOL * head
        for pair in run:
            p, m = pair
            if head - p <= tol:
                mult += m
                first = None
            else:
                merged.append(first or (head, mult))
                first = pair
                head, mult = pair
                tol = MERGE_RTOL * head
        merged.append(first or (head, mult))
        # every run of one keeps its pair, so nothing merged iff no run was longer
        summed = cleaned if len(merged) == len(ordered) else merged
        del ordered, run  # free the sorted copy before the atoms tuple is built
        try:
            mass = math.fsum(p * m for p, m in summed)
        except OverflowError:  # a multiplicity beyond the double range
            mass = math.inf
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"spectrum mass {mass!r} deviates from 1 beyond tolerance {mass_tol}")
        return cls(atoms=tuple(merged), total_dim=sum(m for _, m in summed))

    @classmethod
    def from_probs(cls, values: Sequence[float], *, mass_tol: float = MASS_TOL) -> "Spectrum":
        return cls.from_atoms([(v, 1) for v in values], mass_tol=mass_tol)

    def to_json_dict(self) -> dict:
        return {"atoms": [[p, m] for p, m in self.atoms]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Spectrum":
        if not isinstance(obj, dict) or "atoms" not in obj:
            raise ValueError("spectrum JSON must be an object with an 'atoms' key")
        atoms = _listed(obj["atoms"], "spectrum 'atoms'")
        for atom in atoms:
            if not (isinstance(atom, (list, tuple)) and len(atom) == 2):
                raise ValueError(f"spectrum atom {atom!r} is not a [probability, multiplicity] pair")
        return cls.from_atoms(atoms)


def entropy(s: Spectrum) -> float:
    """Shannon entropy in nats of the expanded distribution."""
    # + 0.0 keeps a point spectrum at 0.0 rather than -0.0
    return -math.fsum(p * m * math.log(p) for p, m in s.atoms) + 0.0


def expand(s: Spectrum, max_expanded_dim: int = DEFAULT_MAX_EXPANDED_DIM) -> np.ndarray:
    """Expanded probability vector, descending.  Guarded by an expansion budget."""
    import numpy as np

    if s.total_dim > max_expanded_dim:
        raise BudgetExceededError("max_expanded_dim", s.total_dim, max_expanded_dim)
    return np.repeat([p for p, _ in s.atoms], [m for _, m in s.atoms])


# ---------------------------------------------------------------------------
# Schmidt decomposition of an amplitude matrix


class AmplitudeMatrix:
    """Complex amplitude matrix C[i, j] of a bipartite pure state, unit Frobenius norm."""

    def __init__(self, entries):
        import numpy as np

        m = np.asarray(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError(f"amplitude matrix must be 2-D and nonempty, got shape {m.shape}")
        # an entry beyond 1e154 overflows to a squared norm of inf, rejected below
        with np.errstate(over="ignore"):
            sq = float(np.sum(np.abs(m) ** 2))
        # written so that NaN fails
        if not abs(sq - 1.0) <= 1e-10:
            raise ValueError(f"amplitude matrix is not normalized: squared norm {sq!r}")
        self.entries = m


def schmidt_from_amplitudes(amps) -> Spectrum:
    """Schmidt spectrum (squared singular values) of an amplitude matrix.

    Singular values below 1e-12 of the largest are treated as exact zeros.
    """
    import numpy as np

    if not isinstance(amps, AmplitudeMatrix):
        amps = AmplitudeMatrix(amps)
    svals = np.linalg.svd(amps.entries, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    probs = [float(s) ** 2 for s in svals if float(s) > 1e-12 * top]
    return Spectrum.from_probs(probs, mass_tol=1e-10)


# ---------------------------------------------------------------------------
# Sequence models


def _type_classes(base: Spectrum, n: int) -> Iterator[tuple[float, int]]:
    """(probability, multiplicity) of each type class of n letters over `base`.

    A class with c_i copies of letter i has probability
    ((1.0 * p_0**c_0) * p_1**c_1) * ..., multiplied left to right from
    per-letter tables of p_i**c, and multiplicity multinomial(n; c) times the
    product of m_i**c_i.  Along a run of classes that trade copies between two
    letters the multiplicity steps exactly by C(r, c - 1) = C(r, c) * c //
    (r - c + 1), with the letters' m_i folded into the same step.
    """
    atoms = base.atoms
    if len(atoms) == 1:
        # one class and no tables; iid_spectrum calls this only when p**n is
        # a normal double, so m**n < 2**1023
        ((p, m),) = atoms
        yield p**n, m**n
        return
    powers = [[p**c for c in range(n + 1)] for p, _ in atoms]
    # (probability, multiplicity, copies left) of each prefix over all
    # letters but the last two
    prefixes = [(1.0, 1, n)]
    for (_, w), pw in zip(atoms[:-2], powers):
        level = []
        for prob, mult, r in prefixes:
            mult *= w**r
            for c in range(r, -1, -1):
                level.append((prob * pw[c], mult, r - c))
                mult = mult * c // ((r - c + 1) * w)
        prefixes = level
    # the last two letters take c and r - c copies in the loop that emits
    (_, wa), (_, wb) = atoms[-2:]
    pa, pb = powers[-2:]
    for prob, mult, r in prefixes:
        mult *= wa**r
        for c in range(r, -1, -1):
            yield prob * pa[c] * pb[r - c], mult
            mult = mult * (c * wb) // ((r - c + 1) * wa)


def _normal_spectrum(pairs: Iterable[tuple[float, int]]) -> Spectrum:
    """Spectrum.from_atoms of generated pairs, read as they are made, so a dropped
    pair is freed at once; when it fails after a drop and the kept mass is off 1
    by more than MASS_TOL, that is the `iid_underflow_mass` budget."""
    kept, dropped = _kept_atoms(pairs)
    try:
        return Spectrum._from_kept(kept)
    except ValueError:
        if dropped and abs(lost := 1.0 - math.fsum(p * m for p, m in kept)) > MASS_TOL:
            raise BudgetExceededError("iid_underflow_mass", lost, MASS_TOL) from None
        raise


def iid_spectrum(base: Spectrum, n: int, *, max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES) -> Spectrum:
    """Spectrum of the n-fold tensor power of `base`, in compressed type-class form.

    There is one candidate atom per composition of n over the base atoms; the
    atom count K is capped by `max_type_classes` before enumeration starts.
    The K classes cost O(K) big-int multiplies and (n + 1) * k float pows for
    k >= 2 base atoms, one pow for k = 1, with no per-class math.comb;
    `_normal_spectrum` drops the classes below the smallest normal double as
    they are made, merges a sorted copy of the rest in one pass and, when
    nothing merged, sums them in generation order; it names the
    `iid_underflow_mass` budget when the dropped mass was too much.  When
    the top class p_max**n is itself below the smallest normal double, every
    class is dropped and the whole mass is lost, so that budget is named
    before enumeration starts.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = len(base.atoms)
    n_classes = math.comb(n + k - 1, k - 1)
    if n_classes > max_type_classes:
        raise BudgetExceededError("max_type_classes", n_classes, max_type_classes)
    # distinct atoms differ by more than MERGE_RTOL, far beyond the few
    # roundings of a class's product of powers, so no class lies above
    # the top one, which _type_classes computes as this very power
    if base.atoms[0][0] ** n < sys.float_info.min:
        raise BudgetExceededError("iid_underflow_mass", 1.0, MASS_TOL)
    return _normal_spectrum(_type_classes(base, n))


def maxent_spectrum(rank: int) -> Spectrum:
    """Flat spectrum of a maximally entangled state of the given Schmidt rank."""
    if rank < 1:
        raise ValueError("Schmidt rank must be a positive integer")
    # 1/rank must be a normal double, as Spectrum.from_atoms requires of every atom
    if rank > 1 << 1022:
        raise BudgetExceededError("max_maxent_rank", rank, 1 << 1022)
    return Spectrum.from_atoms([(1.0 / rank, rank)])


def maxent_rank(rate: float, n: int) -> int:
    """Schmidt rank ceil(e^(n*rate)) for a flat sequence at the given rate.

    A relative 1e-12 downward nudge is applied before the ceiling so that
    float dust in exp does not bump an exact power across the integer
    boundary (e.g. exp(5*ln 2) evaluates slightly above 32).  A rate that
    is NaN, infinite or negative is a ValueError; a finite one whose
    exponent n*rate exceeds 700 exceeds the `max_maxent_exponent` budget.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if math.isnan(rate):
        raise ValueError(f"rate must be a number, got {rate!r}")
    if not 0.0 <= rate < math.inf:
        raise ValueError(f"rate must be finite and nonnegative, got {rate!r}")
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
    """Flat spectra with an explicitly supplied rank for each n (1-based)."""

    ranks: tuple[int, ...]


@dataclass(frozen=True)
class Mixture:
    """Weighted direct sum of component models (block-diagonal reduced state)."""

    components: tuple[tuple[float, "SequenceModel"], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("mixture needs at least one component")
        ws = [w for w, _ in self.components]
        # written so that NaN fails both checks
        if any(not w > 0 for w in ws):
            raise ValueError("mixture weights must be strictly positive")
        if not abs(math.fsum(ws) - 1.0) <= 1e-12:
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
        if n > len(model.ranks):
            raise ValueError(f"explicit rank list has {len(model.ranks)} entries, asked for n={n}")
        return maxent_spectrum(model.ranks[n - 1])
    if isinstance(model, Mixture):
        # w * p can fall below the smallest normal double, as an i.i.d. class can
        return _normal_spectrum(
            (w * p, m)
            for w, sub in model.components
            for p, m in generate(sub, n, max_type_classes=max_type_classes).atoms
        )
    if isinstance(model, Explicit):
        if n > len(model.spectra):
            raise ValueError(f"explicit sequence has {len(model.spectra)} entries, asked for n={n}")
        return model.spectra[n - 1]
    raise TypeError(f"unknown sequence model {model!r}")


def _field(obj: dict, key: str):
    """obj[key], or a ValueError naming the model kind and the missing key."""
    if key not in obj:
        raise ValueError(f"{obj['kind']!r} model needs a {key!r} key")
    return obj[key]


def _list_field(obj: dict, key: str) -> list:
    """obj[key], which must be a list; a ValueError names the model kind and the key."""
    return _listed(_field(obj, key), f"{obj['kind']!r} model's {key!r}")


def _component(pair) -> tuple[float, SequenceModel]:
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
        raise ValueError(f"mixture component {pair!r} is not a [weight, model] pair")
    return _real(pair[0], "mixture weight"), model_from_json_dict(pair[1])


def model_from_json_dict(obj: dict) -> SequenceModel:
    """Parse a sequence model from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("model JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "iid":
        return IID(Spectrum.from_json_dict(_field(obj, "base")))
    if kind == "maxent":
        return MaxEnt(_real(_field(obj, "rate"), "rate"))
    if kind == "maxent_explicit":
        return MaxEntExplicit(tuple(_integer(r, "rank") for r in _list_field(obj, "ranks")))
    if kind == "mixture":
        return Mixture(tuple(map(_component, _list_field(obj, "components"))))
    if kind == "explicit":
        return Explicit(tuple(map(Spectrum.from_json_dict, _list_field(obj, "spectra"))))
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path: str) -> SequenceModel:
    """The model in a JSON file; one nested too deeply to parse is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        # a bare spectrum file acts as the n=1 entry of an explicit sequence
        if isinstance(obj, dict) and "atoms" in obj and "kind" not in obj:
            return Explicit((Spectrum.from_json_dict(obj),))
        return model_from_json_dict(obj)
    except RecursionError as exc:
        raise ValueError(f"model file nests too deeply: {exc}") from None
