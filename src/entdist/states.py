"""Maximally entangled bases, resource states, and discrimination ensembles.

A basis ket (1 ⊗ U_k)|Φ⟩ lives on A1, B1 and the resource τ on A2, B2; an
ensemble ket lives on the four factors in the order A1, A2, B1, B2, so
party A holds the first two. Bases and ensembles are held as stacks:

- ``MaxEntBasis.unitaries`` is one (n, d, d) complex array, U_k at index k,
  and ``MaxEntBasis.kets()`` the (n, d²) array whose row k, read as (d, d),
  is ψ_k[a1, b1] = U_k[b1, a1]/√d.
- ``Ensemble.psi`` is one (N, d, d) array, ψ_k[a1, b1] at index k, and
  ``Ensemble.resource`` the coefficients a of τ = Σ_i a_i|ii⟩; the
  ensemble state is ψ_k ⊗ τ. ``Ensemble.kets()`` forms the (N, d⁴)
  array whose row k, read as (d, d, d, d), is indexed (a1, a2, b1, b2):
  kets[k, a1, a2, b1, b2] = ψ_k[a1, b1] · a_{a2} δ_{a2 b2}. Only a dense
  route asks for it; the checks and the certificate read ψ_k and a.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

BASIS_DEFECT_TOL = 1e-10


@dataclass(frozen=True)
class ResourceSpectrum:
    """Ordered Schmidt coefficients a_1 >= ... >= a_d >= 0 with sum a_i^2 = 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        a = tuple(map(float, self.coeffs))
        object.__setattr__(self, "coeffs", a)
        if len(a) < 2:
            raise ValueError("a resource spectrum needs at least two coefficients")
        if not all(map(math.isfinite, a)):
            raise ValueError(f"Schmidt coefficients must be finite, got {a}")
        if min(a) < 0:
            raise ValueError(f"Schmidt coefficients must be nonnegative, got {a}")
        if any(map(operator.lt, a, a[1:])):
            raise ValueError(f"Schmidt coefficients must be sorted descending, got {a}")
        # No coefficient of a unit vector exceeds 1, and a larger one fails the
        # norm check below anyway; refusing it first keeps the squares finite.
        if a[0] > 1.0 + 1e-12:
            raise ValueError(f"Schmidt coefficients must be at most 1, got {a[0]!r}")
        norm = math.fsum(map(operator.mul, a, a))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(
                f"squared Schmidt coefficients must sum to 1, got {norm!r} "
                "(pass normalize=True to from_probabilities/from_amplitudes)"
            )

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_amplitudes(cls, values, normalize: bool = False) -> "ResourceSpectrum":
        a = sorted(map(float, values), reverse=True)
        if normalize:
            n = float(np.linalg.norm(a))
            if n == 0:
                raise ValueError("cannot normalize an all-zero spectrum")
            a = [x / n for x in a]
        return cls(tuple(a))

    @classmethod
    def from_probabilities(cls, values, normalize: bool = False) -> "ResourceSpectrum":
        """Build from squared weights (Schmidt probabilities).

        The d weights are plain floats: division and math.sqrt round as
        numpy's do, and a normalizing sum is numpy's.
        """
        p = list(map(float, values))
        # 0 > x for every weight without a Python loop; a NaN compares false
        if any(map((0.0).__gt__, p)):
            raise ValueError(f"squared weights must be nonnegative, got {p}")
        if normalize:
            s = float(np.sum(p))
            if s == 0:
                raise ValueError("cannot normalize an all-zero spectrum")
            p = [x / s for x in p]
        return cls(tuple(sorted(map(math.sqrt, p), reverse=True)))

    @classmethod
    def uniform(cls, d: int) -> "ResourceSpectrum":
        return cls.from_probabilities([1.0 / d] * d, normalize=True)

    @classmethod
    def product(cls, d: int) -> "ResourceSpectrum":
        return cls((1.0,) + (0.0,) * (d - 1))


@dataclass(frozen=True)
class BasisValidation:
    """The ``validate_basis`` report. ``products`` is the read-only stack of
    the U_k^dagger U_k the unitarity check formed, kept for later checks of
    the same unitaries; comparisons and the printed report leave it out."""

    count: int
    dim: int
    unitarity_defect: float
    orthogonality_defect: float
    complete: bool
    accepted: bool
    products: np.ndarray = field(repr=False, compare=False)


def validate_basis(unitaries) -> BasisValidation:
    """Check unitarity and pairwise trace-orthogonality of a candidate basis.

    Accepts iff both defects are below 1e-10; completeness (count == d^2)
    is reported separately so partial sets can still be validated.
    """
    if len(unitaries) == 0:
        raise ValueError("empty list of unitaries")
    d = np.shape(unitaries[0])[0]
    # every matrix of an array has the shape of the first
    for U in unitaries[:1] if isinstance(unitaries, np.ndarray) else unitaries:
        if np.shape(U) != (d, d):
            raise ValueError(
                f"inconsistent dimensions: expected {(d, d)}, got {np.shape(U)}"
            )
    stack = np.asarray(unitaries, dtype=complex)
    n = len(stack)
    # one reduction on the common path; the offending index only on failure
    if not np.isfinite(stack).all():
        bad = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))
        raise ValueError(f"unitary {bad[0]} has a non-finite entry")
    conj = stack.conj()
    products = conj.swapaxes(1, 2) @ stack
    products.flags.writeable = False
    unit_defect = float(np.abs(products - np.eye(d)).max())
    # gram[i, j] = Tr(U_i^dagger U_j), one product over the flattened stack;
    # the defect is the largest |gram[i, j]| of its strict upper triangle.
    gram = conj.reshape(n, d * d) @ stack.reshape(n, d * d).T
    index = np.arange(n)
    orth_defect = float(np.abs(gram)[index[:, None] < index].max(initial=0.0))
    complete = n == d * d
    accepted = unit_defect < BASIS_DEFECT_TOL and orth_defect < BASIS_DEFECT_TOL
    return BasisValidation(
        count=n,
        dim=d,
        unitarity_defect=unit_defect,
        orthogonality_defect=orth_defect,
        complete=complete,
        accepted=accepted,
        products=products,
    )


@dataclass(frozen=True)
class MaxEntBasis:
    """d^2 trace-orthogonal unitaries generating a maximally entangled basis.

    ``unitaries`` is one (d^2, d, d) complex array. The first unitary is the
    identity, so the first basis ket is the standard maximally entangled
    state. ``validation`` is the ``validate_basis`` report the construction
    checked, which keeps the products U_k^dagger U_k it formed.
    """

    dim: int
    unitaries: np.ndarray
    validation: BasisValidation = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        report = validate_basis(self.unitaries)
        # A read-only view: the report, and the ensembles that rely on it
        # in place of a Gram check of their own, hold for these entries.
        mats = np.asarray(self.unitaries, dtype=complex).view()
        mats.flags.writeable = False
        object.__setattr__(self, "unitaries", mats)
        object.__setattr__(self, "validation", report)
        if report.dim != self.dim:
            raise ValueError(f"unitaries act on dimension {report.dim}, not {self.dim}")
        if not report.complete:
            raise ValueError(f"need {self.dim ** 2} unitaries, got {report.count}")
        if not report.accepted:
            raise ValueError(
                "basis rejected: unitarity defect "
                f"{report.unitarity_defect:.3e}, orthogonality defect "
                f"{report.orthogonality_defect:.3e}"
            )
        if np.abs(mats[0] - np.eye(self.dim)).max() > BASIS_DEFECT_TOL:
            raise ValueError("the first unitary must be the identity")

    def __len__(self) -> int:
        return len(self.unitaries)

    def kets(self) -> np.ndarray:
        """The (d^2, d^2) stack of the kets (1⊗U_k)|Phi>, one per row.

        <ij|(1⊗U)|Phi> = U[j, i]/sqrt(d): row k is U_k^T flattened row-major.
        """
        d = self.dim
        # one pass: the quotient is written in row order, so the reshape is a view
        kets = np.divide(self.unitaries.swapaxes(1, 2), math.sqrt(d), order="C")
        return kets.reshape(-1, d * d)


def weyl_basis(d: int) -> MaxEntBasis:
    """Shift-and-clock basis: U_(a,b) = X^a Z^b for a,b in 0..d-1.

    X is the cyclic shift, Z = diag(1, w, ..., w^(d-1)) with w = exp(2*pi*i/d),
    so U_(a,b)[i, j] = [i = j + a mod d] w^(b j mod d); index order is
    a-major so the element at index 0 is the identity.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    i = np.arange(d)
    phase = np.exp(2j * np.pi * (i[:, None] * i % d) / d)
    # unitaries[a, b, (j + a) % d, j] = phase[b, j]; the index arrays
    # broadcast to (a, j), so the entries land as (a, j, b)
    unitaries = np.zeros((d, d, d, d), dtype=complex)
    unitaries[i[:, None], :, (i + i[:, None]) % d, i] = phase.T
    return MaxEntBasis(dim=d, unitaries=unitaries.reshape(d * d, d, d))


def resource_state(spec: ResourceSpectrum) -> np.ndarray:
    """|tau> = sum_i a_i |ii> on A2⊗B2."""
    return np.diag(np.asarray(spec.coeffs, dtype=complex)).reshape(-1)


@dataclass(frozen=True)
class Ensemble:
    """States psi_k (x) tau on A1,A2,B1,B2, held as their factors: the
    (N, d, d) stack ``psi`` on A1,B1, the spectrum ``resource`` of tau on
    A2,B2, and the priors."""

    psi: np.ndarray
    resource: ResourceSpectrum
    priors: tuple[float, ...]

    def __post_init__(self):
        self._check_factors()
        # <psi_j (x) tau|psi_k (x) tau> = <psi_j|psi_k> ||tau||^2, and ||tau|| = 1
        flat = self.psi.reshape(len(self.psi), -1)
        overlaps = np.triu(np.abs(flat.conj() @ flat.T) > 1e-10, 1)
        if overlaps.any():
            i, j = np.argwhere(overlaps)[0]
            raise ValueError(f"states {i} and {j} are not orthogonal")

    @classmethod
    def _of_orthogonal(cls, psi, resource: ResourceSpectrum, priors) -> "Ensemble":
        """An ensemble of states known to be orthogonal: every check but the
        Gram matrix's."""
        ens = object.__new__(cls)
        vars(ens).update(psi=psi, resource=resource, priors=priors)
        ens._check_factors()
        return ens

    def _check_factors(self) -> None:
        """Check the priors and the shape and norm of every psi_k, and store
        both as the normalized tuple and complex array."""
        priors = tuple(map(float, self.priors))
        object.__setattr__(self, "priors", priors)
        if len(self.psi) != len(priors):
            raise ValueError("need one prior per state")
        if abs(sum(priors) - 1.0) > 1e-12 or any(map((0.0).__gt__, priors)):
            raise ValueError(f"priors must be a probability vector, got {priors}")
        d = self.resource.dim
        psi = np.asarray(self.psi, dtype=complex)
        if psi.ndim != 3 or psi.shape[1:] != (d, d):
            raise ValueError(f"psi shape {psi.shape} does not match (N, {d}, {d})")
        object.__setattr__(self, "psi", psi)
        # the Frobenius norms, summed as np.linalg.norm sums them
        norms = np.sqrt((psi.conj() * psi).real.sum(axis=(1, 2)))
        if np.abs(norms - 1.0).max() > 1e-12:
            raise ValueError("ensemble states must be normalized")

    def __len__(self) -> int:
        return len(self.psi)

    def kets(self) -> np.ndarray:
        """The (N, d^4) stack of the kets psi_k (x) tau, one per row."""
        n, d = len(self.psi), self.resource.dim
        tau = resource_state(self.resource).reshape(d, d)
        # kets[k, a1, a2, b1, b2] = psi[k, a1, b1] * tau[a2, b2]
        return (self.psi[:, :, None, :, None] * tau[:, None, :]).reshape(n, -1)

    def density_operators(self) -> np.ndarray:
        """The (N, d^4, d^4) stack of the projectors onto ``kets()``."""
        kets = self.kets()
        return kets[:, :, None] * kets[:, None, :].conj()


def problem_size(basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int | None) -> int:
    """The number N of basis states a problem on ``basis`` and ``spec`` uses,
    d^2 when n_states is None; raises unless the spectrum acts on the basis's
    dimension d and 1 <= N <= d^2."""
    d = basis.dim
    if spec.dim != d:
        raise ValueError(f"spectrum dimension {spec.dim} does not match basis {d}")
    n = d * d if n_states is None else n_states
    if not 1 <= n <= d * d:
        raise ValueError(f"n_states must lie in [1, {d * d}], got {n}")
    return n


def build_ensemble(basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int) -> Ensemble:
    """Ensemble of the first n_states basis elements paired with the resource,
    with uniform priors."""
    d = basis.dim
    n_states = problem_size(basis, spec, n_states)
    psi = basis.kets()[:n_states].reshape(n_states, d, d)
    # <psi_j|psi_k> = Tr(U_j^dagger U_k)/d, so the basis's accepted
    # orthogonality defect, below 1e-10, keeps every overlap below the 1e-10
    # at which an Ensemble refuses a pair: no second Gram matrix is formed.
    return Ensemble._of_orthogonal(psi, spec, (1.0 / n_states,) * n_states)


def random_spectrum(d: int, rng: np.random.Generator) -> ResourceSpectrum:
    """Sample squared weights from d exponentials, normalize, sort."""
    p = rng.exponential(size=d)
    return ResourceSpectrum.from_probabilities(p / p.sum(), normalize=True)


def read_basis_file(path) -> tuple[int, list]:
    """Read the dimension and the raw unitary entries of a basis file.

    Nothing is built from the entries yet, so a caller can judge the size
    of the basis from its dimension first; ``basis_from_entries`` builds it.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    try:
        d, raw = payload["dim"], payload["unitaries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed basis file {path}: {exc}") from exc
    if type(d) is not int:
        raise ValueError(f"malformed basis file {path}: dim must be an integer, got {d!r}")
    if not isinstance(raw, list):
        raise ValueError(f"malformed basis file {path}: unitaries must be a list")
    return d, raw


def basis_from_entries(d: int, raw: list, path) -> MaxEntBasis:
    """Build and validate the basis read from the basis file at ``path``.

    Each unitary is a flat row-major list of [re, im] pairs of length d^2.
    """
    unitaries = []
    for idx, entries in enumerate(raw):
        if not (
            isinstance(entries, list)
            and len(entries) == d * d
            and all(isinstance(z, list) and len(z) == 2 for z in entries)
        ):
            raise ValueError(
                f"malformed basis file {path}: unitary {idx} is not a list "
                f"of {d * d} [re, im] pairs"
            )
        try:
            flat = np.array(
                [complex(float(re), float(im)) for re, im in entries], dtype=complex
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed basis file {path}: unitary {idx}: {exc}") from exc
        unitaries.append(flat.reshape(d, d))
    return MaxEntBasis(dim=d, unitaries=tuple(unitaries))


def dump_basis_file(basis: MaxEntBasis, path) -> None:
    payload = {
        "dim": basis.dim,
        "unitaries": [
            [[float(z.real), float(z.imag)] for z in U.reshape(-1)]
            for U in basis.unitaries
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
