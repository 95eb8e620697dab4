"""Maximally entangled bases, resource states, and discrimination ensembles.

The four-factor ordering used throughout is A1, B1, A2, B2 before the
relabelling swap and A1, A2, B1, B2 after it; the swap exchanges factors
1 and 2. Party A always holds the first two factors of the swapped order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .tensor import SubsystemLayout, permute_ket

BASIS_DEFECT_TOL = 1e-10

# B1 <-> A2 exchange on the (A1, B1, A2, B2) ordering.
SWAP_B1_A2 = (0, 2, 1, 3)


def four_factor_layout(d: int) -> SubsystemLayout:
    """Layout of A1⊗A2⊗B1⊗B2 with the A:B cut after two factors."""
    return SubsystemLayout((d, d, d, d), cut=2)


def pair_layout(d: int) -> SubsystemLayout:
    return SubsystemLayout((d, d), cut=1)


@dataclass(frozen=True)
class ResourceSpectrum:
    """Ordered Schmidt coefficients a_1 >= ... >= a_d >= 0 with sum a_i^2 = 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(x) for x in self.coeffs)
        object.__setattr__(self, "coeffs", a)
        if len(a) < 2:
            raise ValueError("a resource spectrum needs at least two coefficients")
        if not all(math.isfinite(x) for x in a):
            raise ValueError(f"Schmidt coefficients must be finite, got {a}")
        if any(x < 0 for x in a):
            raise ValueError(f"Schmidt coefficients must be nonnegative, got {a}")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise ValueError(f"Schmidt coefficients must be sorted descending, got {a}")
        norm = math.fsum(x * x for x in a)
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
        a = np.asarray(sorted((float(v) for v in values), reverse=True))
        if normalize:
            n = np.linalg.norm(a)
            if n == 0:
                raise ValueError("cannot normalize an all-zero spectrum")
            a = a / n
        return cls(tuple(a))

    @classmethod
    def from_probabilities(cls, values, normalize: bool = False) -> "ResourceSpectrum":
        """Build from squared weights (Schmidt probabilities)."""
        p = np.asarray([float(v) for v in values])
        if np.any(p < 0):
            raise ValueError(f"squared weights must be nonnegative, got {p.tolist()}")
        if normalize:
            s = p.sum()
            if s == 0:
                raise ValueError("cannot normalize an all-zero spectrum")
            p = p / s
        return cls(tuple(sorted(np.sqrt(p).tolist(), reverse=True)))

    @classmethod
    def uniform(cls, d: int) -> "ResourceSpectrum":
        return cls.from_probabilities([1.0 / d] * d, normalize=True)

    @classmethod
    def product(cls, d: int) -> "ResourceSpectrum":
        return cls((1.0,) + (0.0,) * (d - 1))


@dataclass(frozen=True)
class BasisValidation:
    count: int
    dim: int
    unitarity_defect: float
    orthogonality_defect: float
    complete: bool
    accepted: bool

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "dim": self.dim,
            "unitarity_defect": self.unitarity_defect,
            "orthogonality_defect": self.orthogonality_defect,
            "complete": self.complete,
            "accepted": self.accepted,
        }


def validate_basis(unitaries) -> BasisValidation:
    """Check unitarity and pairwise trace-orthogonality of a candidate basis.

    Accepts iff both defects are below 1e-10; completeness (count == d^2)
    is reported separately so partial sets can still be validated.
    """
    mats = [np.asarray(U, dtype=complex) for U in unitaries]
    if not mats:
        raise ValueError("empty list of unitaries")
    d = mats[0].shape[0]
    for U in mats:
        if U.shape != (d, d):
            raise ValueError(
                f"inconsistent dimensions: expected {(d, d)}, got {U.shape}"
            )
    n = len(mats)
    stack = np.stack(mats)
    products = stack.conj().swapaxes(1, 2) @ stack
    unit_defect = float(np.max(np.abs(products - np.eye(d))))
    # gram[i, j] = Tr(U_i^dagger U_j), one product over the flattened stack.
    flat = stack.reshape(n, d * d)
    gram = flat.conj() @ flat.T
    off_diagonal = np.abs(gram[np.triu_indices(n, 1)])
    orth_defect = float(off_diagonal.max()) if off_diagonal.size else 0.0
    complete = n == d * d
    accepted = unit_defect < BASIS_DEFECT_TOL and orth_defect < BASIS_DEFECT_TOL
    return BasisValidation(
        count=n,
        dim=d,
        unitarity_defect=unit_defect,
        orthogonality_defect=orth_defect,
        complete=complete,
        accepted=accepted,
    )


@dataclass(frozen=True)
class MaxEntBasis:
    """d^2 trace-orthogonal unitaries generating a maximally entangled basis.

    The first unitary is the identity, so the first basis ket is the
    standard maximally entangled state.
    """

    dim: int
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(U, dtype=complex) for U in self.unitaries)
        object.__setattr__(self, "unitaries", mats)
        report = validate_basis(mats)
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
        if np.max(np.abs(mats[0] - np.eye(self.dim))) > BASIS_DEFECT_TOL:
            raise ValueError("the first unitary must be the identity")

    def __len__(self) -> int:
        return len(self.unitaries)

    def kets(self) -> list[np.ndarray]:
        return [max_ent_state(U) for U in self.unitaries]


def weyl_basis(d: int) -> MaxEntBasis:
    """Shift-and-clock basis: U_(a,b) = X^a Z^b for a,b in 0..d-1.

    X is the cyclic shift, Z = diag(1, w, ..., w^(d-1)) with w = exp(2*pi*i/d);
    index order is a-major so the element at index 0 is the identity.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    unitaries = []
    for a in range(d):
        for b in range(d):
            unitaries.append(
                np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
            )
    return MaxEntBasis(dim=d, unitaries=tuple(unitaries))


def max_ent_state(U: np.ndarray) -> np.ndarray:
    """(1⊗U) applied to the standard maximally entangled ket."""
    U = np.asarray(U, dtype=complex)
    d = U.shape[0]
    if U.shape != (d, d):
        raise ValueError(f"expected a square matrix, got shape {U.shape}")
    if np.max(np.abs(U.conj().T @ U - np.eye(d))) > BASIS_DEFECT_TOL:
        raise ValueError("operator is not unitary within tolerance")
    # <ij|(1⊗U)|Psi_1> = U[j,i]/sqrt(d), i.e. the row-major flattening of U^T.
    return U.T.reshape(-1) / np.sqrt(d)


def resource_state(spec: ResourceSpectrum) -> np.ndarray:
    """|tau> = sum_i a_i |ii> on A2⊗B2."""
    return np.diag(np.asarray(spec.coeffs, dtype=complex)).reshape(-1)


@dataclass(frozen=True)
class Ensemble:
    """States |Phi_k> on A⊗B with their priors and the A:B layout."""

    layout: SubsystemLayout
    states: tuple[np.ndarray, ...]
    priors: tuple[float, ...]

    def __post_init__(self):
        states = tuple(np.asarray(v, dtype=complex) for v in self.states)
        priors = tuple(float(p) for p in self.priors)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", priors)
        if len(states) != len(priors):
            raise ValueError("need one prior per state")
        if abs(sum(priors) - 1.0) > 1e-12 or any(p < 0 for p in priors):
            raise ValueError(f"priors must be a probability vector, got {priors}")
        for v in states:
            self.layout.check_ket(v)
            if abs(np.linalg.norm(v) - 1.0) > 1e-12:
                raise ValueError("ensemble states must be normalized")
        n = len(states)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(np.vdot(states[i], states[j])) > 1e-10:
                    raise ValueError(f"states {i} and {j} are not orthogonal")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def uniform(self) -> bool:
        n = len(self.priors)
        return all(abs(p - 1.0 / n) <= 1e-12 for p in self.priors)

    def density_operators(self) -> list[np.ndarray]:
        return [np.outer(v, v.conj()) for v in self.states]


def build_ensemble(basis: MaxEntBasis, spec: ResourceSpectrum, n_states: int) -> Ensemble:
    """Ensemble of the first n_states basis elements paired with the resource.

    Each ket is swapped from the A1,B1,A2,B2 ordering into A1,A2,B1,B2 so
    that party A holds the first two factors.
    """
    d = basis.dim
    if spec.dim != d:
        raise ValueError(f"spectrum dimension {spec.dim} does not match basis {d}")
    if not 1 <= n_states <= d * d:
        raise ValueError(f"n_states must lie in [1, {d * d}], got {n_states}")
    tau = resource_state(spec)
    dims = (d, d, d, d)
    states = [
        permute_ket(np.kron(max_ent_state(U), tau), dims, SWAP_B1_A2)
        for U in basis.unitaries[:n_states]
    ]
    priors = (1.0 / n_states,) * n_states
    return Ensemble(layout=four_factor_layout(d), states=tuple(states), priors=priors)


def schmidt_coefficients(v: np.ndarray, layout: SubsystemLayout) -> np.ndarray:
    """Descending singular values of the coefficient matrix across the cut."""
    layout.check_ket(v)
    coeff = v.reshape(layout.dim_a, layout.dim_b)
    return np.linalg.svd(coeff, compute_uv=False)


def random_spectrum(d: int, rng: np.random.Generator) -> ResourceSpectrum:
    """Sample squared weights from d exponentials, normalize, sort."""
    p = rng.exponential(size=d)
    return ResourceSpectrum.from_probabilities(p / p.sum(), normalize=True)


def haar_random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    phase = np.diag(r).copy()
    phase /= np.abs(phase)
    return q * phase


def conjugated_basis(basis: MaxEntBasis, V: np.ndarray) -> MaxEntBasis:
    """Replace each generator U_j by V U_j V†; keeps U_1 = identity."""
    return MaxEntBasis(
        dim=basis.dim,
        unitaries=tuple(V @ U @ V.conj().T for U in basis.unitaries),
    )


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


def load_basis_file(path) -> MaxEntBasis:
    """Read a basis from JSON: {"dim": d, "unitaries": [[[re, im], ...], ...]}."""
    d, raw = read_basis_file(path)
    return basis_from_entries(d, raw, path)


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
