"""Discretized two-field problem definition.

One field lives on a 1-D spatial grid (the xi coordinate) and is
governed by a finite-difference operator; the other is carried by a
finite set of modes phi_n(q) with energies eps_n on a quadrature grid
for q. The coupling kernel V(q, xi) is projected onto the mode basis,

    V_nn'(xi) = sum_q w_q phi_n(q) V(q, xi) phi_n'(q),

which eliminates q in favor of the mode index n. Everything here is
real and dimensionless. A Grid computes its points and weights from
(n, span, boundary), and a ModeBasis normalizes the samples it is
given, each in its constructor; all containers are immutable after
construction.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import numbers
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError

BOUNDARIES = ("dirichlet", "periodic")
COUPLING_KINDS = ("gaussian_attractive", "constant", "custom_sampled")

DEFAULT_BUMP_WIDTH_FACTOR = 1.5
# Largest spread of a grid's computed steps, relative to the first:
# hamiltonian_g builds the Laplacian from one spacing, so the points
# must be even up to rounding (np.linspace steps differ in the last
# bits); a span far from the origin for its width, or one that
# overflows or is subnormal, cannot meet it. The Laplacian's scale
# 1/h^2 must also be finite, which refuses a spacing below ~7.5e-155.
SPACING_TOL = 1e-9


def _freeze(a) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Evenly spaced 1-D quadrature grid of n points over span.

    Dirichlet grids include both ends of span and carry trapezoid
    weights (h/2 at the ends, h inside). Periodic grids cover one
    period [a, b) with uniform weights h = (b - a)/n. The constructor
    computes points and weights from (n, span, boundary), read-only,
    and refuses a span whose points come out non-finite or unevenly
    spaced, or whose spacing h has no finite 1/h^2. Errors name the
    config fields field + "n" and field + "span". Grids compare and hash by identity, so a shared
    grid can key the caches built on it (gaussian_bump_basis).
    """

    n: int
    span: tuple
    boundary: str = "dirichlet"
    field: InitVar[str] = "grid."
    points: np.ndarray = dataclasses.field(init=False)
    weights: np.ndarray = dataclasses.field(init=False)

    # an overflowing span or spacing reads inf or NaN, which is refused
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __post_init__(self, field):
        n, boundary = self.n, self.boundary
        if n < 2:
            raise ConfigError(f"{field}n: need at least 2 points, got {n}")
        if boundary not in BOUNDARIES:
            raise ConfigError(f"grid.boundary: unknown value {boundary!r}")
        a, b = float(self.span[0]), float(self.span[1])
        if not b > a:
            raise ConfigError(f"{field}span: upper bound must exceed lower")
        if boundary == "periodic":
            h = (b - a) / n
            pts = a + h * np.arange(n)
            w = np.full(n, h)
        else:
            pts = np.linspace(a, b, n)
            h = pts[1] - pts[0]
            w = np.full(n, h)
            w[0] = w[-1] = h / 2
        steps = np.diff(pts)
        if not (np.all(np.isfinite(pts)) and np.all(steps > 0)
                and np.ptp(steps) <= SPACING_TOL * steps[0]
                and np.isfinite(1.0 / (steps[0] * steps[0]))):
            raise ConfigError(f"{field}span: {n} points over it are not "
                              "finite and evenly spaced, or their spacing h "
                              "has no finite 1/h^2")
        object.__setattr__(self, "span", (a, b))
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(w))

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @classmethod
    def uniform(cls, n: int, span: Sequence[float],
                boundary: str = "dirichlet", field: str = "grid.") -> "Grid":
        """Grid(n, span, boundary), shared: a grid is immutable, so
        each (n, span, boundary) is built and checked once, and a
        repeated call returns the same Grid. A failed check is not
        cached and raises again."""
        # keyed by the bits of the span: 0.0 == -0.0, but a -0.0 end
        # is a different last point
        return _uniform_grid(cls, n, float(span[0]).hex(),
                             float(span[1]).hex(), boundary, field)


@lru_cache(maxsize=64, typed=True)
def _uniform_grid(cls, n: int, a: str, b: str, boundary: str,
                  field: str) -> Grid:
    """Grid.uniform's grid; a and b are the ends of the span as
    float.hex strings."""
    return cls(n, (float.fromhex(a), float.fromhex(b)), boundary, field)


@dataclass(frozen=True)
class ModeBasis:
    """Mode energies eps_n and amplitude samples phi_n(q), normalized.

    phi is indexed (mode, q-point). The constructor divides each row
    by its quadrature norm, so sum_q w_q phi_n(q)^2 = 1 up to
    rounding; a row whose squared norm is zero, subnormal or not
    finite cannot be scaled to unit norm and is refused. Energies are
    nondecreasing with eps_0 the ground value.
    """

    eps: np.ndarray
    phi: np.ndarray
    q_grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "eps", _freeze(self.eps))
        phi = np.asarray(self.phi, dtype=float)
        if self.eps.ndim != 1 or self.eps.size < 2:
            raise ConfigError("modes.eps: need at least 2 modes")
        if np.any(np.diff(self.eps) < 0):
            raise ConfigError("modes.eps: must be nondecreasing")
        if phi.shape != (self.eps.size, self.q_grid.n):
            raise ConfigError("modes.phi: shape must be (n_modes, n_q)")
        with np.errstate(over="ignore"):  # an overflow is refused
            sq_norms = phi ** 2 @ self.q_grid.weights
        if not np.all(np.isfinite(sq_norms)
                      & (sq_norms >= np.finfo(float).tiny)):
            raise ConfigError("modes.phi: a mode's quadrature norm on the "
                              "q grid is zero or out of floating-point range")
        object.__setattr__(self, "phi",
                           _freeze(phi / np.sqrt(sq_norms)[:, None]))

    @property
    def n_modes(self) -> int:
        return self.eps.size

    @cached_property
    def overlap_factor(self) -> np.ndarray:
        """R of the thin QR sqrt(W_q) phi^T = Q R.

        R^T R = phi W_q phi^T is the mode overlap and Q has orthonormal
        columns, so channel amplitudes c give |R c|^2 as the q-integral
        of |sum_n phi_n c_n|^2 and R c the same singular values as the
        weighted q-grid amplitude, without painting onto the q grid.
        """
        return _freeze(np.linalg.qr(
            np.sqrt(self.q_grid.weights)[:, None] * self.phi.T, mode="r"))


@dataclass(frozen=True)
class CouplingSpec:
    """Coupling kernel between the mode field (q) and the grid field (xi).

    gaussian_attractive: V(q, xi) = -g exp(-(q - xi)^2 / (2 sigma^2)),
    nonpositive everywhere. constant: V = -g. custom_sampled: caller
    supplies kernel values on the (q, xi) product grid.
    """

    kind: str
    strength: float = 0.0
    width: float = 1.0
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in COUPLING_KINDS:
            raise ConfigError(f"coupling.kind: unknown value {self.kind!r}")
        if self.strength < 0:
            raise ConfigError("coupling.g: must be nonnegative")
        if self.kind == "gaussian_attractive" and self.width <= 0:
            raise ConfigError("coupling.sigma: must be positive")
        if self.kind == "custom_sampled":
            if self.samples is None:
                raise ConfigError("coupling.samples: required for custom_sampled")
            object.__setattr__(self, "samples", _freeze(self.samples))
        elif self.samples is not None:
            raise ConfigError("coupling.samples: only valid for custom_sampled")

    def kernel(self, q_points: np.ndarray, xi_points: np.ndarray) -> np.ndarray:
        """Kernel values on the product grid, indexed (q, xi)."""
        q = np.asarray(q_points)[:, None]
        xi = np.asarray(xi_points)[None, :]
        if self.kind == "gaussian_attractive":
            return -self.strength * np.exp(-((q - xi) ** 2) / (2 * self.width ** 2))
        if self.kind == "constant":
            return np.full((q.size, xi.size), -self.strength)
        if self.samples.shape != (q.size, xi.size):
            raise ConfigError(
                f"coupling.samples: shape {self.samples.shape} does not match "
                f"grids ({q.size}, {xi.size})")
        return self.samples


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem instance: grids, modes, coupling, and grid-field operator."""

    xi_grid: Grid
    modes: ModeBasis
    coupling: CouplingSpec
    g_stiffness: float
    g_potential: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "g_potential", _freeze(self.g_potential))
        if self.g_stiffness < 0:
            raise ConfigError("hg.stiffness: must be nonnegative")
        if self.g_potential.shape != (self.xi_grid.n,):
            raise ConfigError("hg.potential: length must equal grid size")

    @property
    def n_g(self) -> int:
        return self.xi_grid.n

    @property
    def n_tot(self) -> int:
        return self.modes.n_modes

    @property
    def dim(self) -> int:
        """Dimension N_tot * N_g of the full coupled operator."""
        return self.n_tot * self.n_g


def hamiltonian_g(spec: ProblemSpec) -> np.ndarray:
    """Grid-field operator: stiffness * (-d2/dxi2) + diag(potential).

    The Laplacian is the 3-point stencil (2, -1)/h^2 under the grid's
    declared boundary; the result is exactly symmetric.
    """
    n = spec.n_g
    h = spec.xi_grid.spacing
    scale = spec.g_stiffness / (h * h)
    m = np.zeros((n, n))
    idx = np.arange(n)
    m[idx, idx] = 2.0 * scale
    m[idx[:-1], idx[:-1] + 1] = -scale
    m[idx[:-1] + 1, idx[:-1]] = -scale
    if spec.xi_grid.boundary == "periodic":
        m[0, n - 1] = -scale
        m[n - 1, 0] = -scale
    m[idx, idx] += spec.g_potential
    return m


def gaussian_bump_basis(n_modes: int, q_grid: Grid, delta_eps: float,
                        width_factor: float = DEFAULT_BUMP_WIDTH_FACTOR) -> ModeBasis:
    """Overlapping Gaussian bumps at evenly spaced centers.

    Centers sit at the midpoints of n_modes equal subdivisions of the
    q span; the bump width is width_factor times the center spacing,
    wide enough that neighboring modes overlap and cross couplings
    survive projection. ModeBasis normalizes the bumps, and refuses
    one too narrow to have a quadrature norm on q_grid. Energies are
    eps_n = n * delta_eps. Bases on the same (n_modes, q_grid,
    width_factor) share one read-only phi and overlap factor.
    """
    if n_modes < 2:
        raise ConfigError(f"modes.count: need at least 2 modes, got {n_modes}")
    if delta_eps < 0:
        raise ConfigError("modes.delta_eps: must be nonnegative")
    if width_factor <= 0:
        raise ConfigError("modes.width_factor: must be positive")
    # the shared profiles with this basis's energies: phi and the
    # overlap factor stay the cached basis's, already checked
    basis = copy.copy(_bump_profiles(n_modes, q_grid, width_factor))
    object.__setattr__(basis, "eps",
                       _freeze(delta_eps * np.arange(n_modes, dtype=float)))
    return basis


@lru_cache(maxsize=64, typed=True)
# a width that underflows reads x/0 or 0/0; ModeBasis refuses the rows
@np.errstate(divide="ignore", invalid="ignore")
def _bump_profiles(n_modes: int, q_grid: Grid,
                   width_factor: float) -> ModeBasis:
    """gaussian_bump_basis's profiles, normalized by ModeBasis, with
    placeholder energies 0..n-1, built once per (n_modes, q grid,
    width factor) together with their overlap factor, which every
    copy shares."""
    q = q_grid.points
    lo, hi = q[0], q[-1]
    spacing = (hi - lo) / n_modes
    centers = lo + spacing * (np.arange(n_modes) + 0.5)
    width = width_factor * spacing
    phi = np.exp(-((q[None, :] - centers[:, None]) ** 2) / (2 * width ** 2))
    basis = ModeBasis(np.arange(n_modes, dtype=float), phi, q_grid)
    basis.overlap_factor  # computed here, so the copies share it
    return basis


def project_coupling(basis: ModeBasis, coupling: CouplingSpec,
                     xi_grid: Grid) -> np.ndarray:
    """Project the kernel onto the mode basis by q-quadrature.

    V_nn'(xi) = sum_q w_q phi_n(q) V(q, xi) phi_n'(q), returned as one
    read-only array indexed (n, n', xi-point), shape (N_tot, N_tot,
    N_g). The mode pair products w_q phi_n phi_n' are formed once and
    contracted with the kernel over q in one GEMM; the result is
    exactly symmetric in (n, n').
    """
    kern = coupling.kernel(basis.q_grid.points, xi_grid.points)
    phi, n = basis.phi, basis.n_modes
    pairs = (phi * basis.q_grid.weights)[:, None, :] * phi  # (n, n, n_q)
    v = (pairs.reshape(n * n, -1) @ kern).reshape(n, n, -1)
    return _freeze(0.5 * (v + v.transpose(1, 0, 2)))  # kill roundoff asymmetry


def block_operator(spec: ProblemSpec, v: np.ndarray) -> np.ndarray:
    """Coupled-channel operator in the eta scale (eps_0 subtracted).

    H[(n, xi), (n', xi')] = delta_nn' (h_g + (eps_n - eps_0) I)
    + delta_xi,xi' V_nn'(xi), mode-major: block n spans rows
    n*N_g .. (n+1)*N_g - 1. This is the only place that knows the
    layout; the mode-0 block h0, its coupling B to the other modes and
    the truncated operator L are the slices [:N_g, :N_g], [:N_g, N_g:]
    and [N_g:, N_g:]. Exactly symmetric. v is project_coupling's
    array; any shape but (N_tot, N_tot, N_g) is a ConfigError.
    """
    n_tot, n_g = spec.n_tot, spec.n_g
    if np.shape(v) != (n_tot, n_tot, n_g):
        raise ConfigError("coupling matrices: shape mismatch with spec")
    shifted = v + np.diag(spec.modes.eps - spec.modes.eps[0])[:, :, None]
    op = np.zeros((n_tot, n_g, n_tot, n_g))
    xi, modes = np.arange(n_g), np.arange(n_tot)
    op[:, xi, :, xi] = shifted.transpose(2, 0, 1)
    op[modes, :, modes, :] += hamiltonian_g(spec)
    return op.reshape(n_tot * n_g, n_tot * n_g)


# ---------------------------------------------------------------------------
# Config-document parsing


def _check_keys(doc: Mapping, allowed: Sequence[str], path: str) -> None:
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{path[:-1] or 'config'}: must be an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}{key}: unknown key")


def _number(doc: Mapping, key: str, default, path: str,
            integer: bool = False):
    """doc[key], or default when absent, as a float (an int with
    integer). A boolean, a non-number or a non-integral count raises a
    ConfigError naming the field path."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        raise ConfigError(f"{path}{key}: must be "
                          f"{'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    if integer:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{path}{key}: must be a finite number") from None


def _all_numbers(value) -> bool:
    """True when value is a number, an integer or float array, or nested
    lists of these; booleans and numeric strings are not numbers."""
    if isinstance(value, (list, tuple)):
        return all(_all_numbers(x) for x in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _array(value, path: str, shape=None) -> np.ndarray:
    """value as a float array, of the given shape if one is given."""
    try:
        arr = np.asarray(value, dtype=float) if _all_numbers(value) else None
    except (OverflowError, ValueError):
        arr = None
    if arr is None or shape is not None and arr.shape != shape:
        raise ConfigError(f"{path}: need numbers"
                          + ("" if shape is None else f" of shape {shape}"))
    return arr


def _named_potential(doc: Mapping, grid: Grid) -> np.ndarray:
    kind = doc.get("kind")
    xi = grid.points
    path = "hg.potential."
    if kind == "zero":
        _check_keys(doc, ("kind",), path)
        return np.zeros(grid.n)
    if kind == "harmonic":
        _check_keys(doc, ("kind", "strength", "center"), path)
        s = _number(doc, "strength", 1.0, path)
        c = _number(doc, "center", 0.5 * (xi[0] + xi[-1]), path)
        return s * (xi - c) ** 2
    if kind == "double_well":
        _check_keys(doc, ("kind", "depth", "width", "centers", "detune"),
                    path)
        depth = _number(doc, "depth", 1.0, path)
        width = _number(doc, "width", 0.1 * (xi[-1] - xi[0]), path)
        if not width > 0:
            raise ConfigError("hg.potential.width: must be positive")
        centers = _array(doc.get("centers"), path + "centers", (2,))
        detune = _number(doc, "detune", 0.0, path)
        depths = (depth, depth + detune)
        out = np.zeros(grid.n)
        for c, d in zip(centers, depths):
            out -= d * np.exp(-((xi - c) ** 2) / (2 * width ** 2))
        return out
    raise ConfigError(f"hg.potential.kind: unknown value {kind!r}")


def _check_scale(spec: ProblemSpec, energies_field: str) -> None:
    """Refuse an operator whose squares overflow. Its Gershgorin radius
    G bounds every eigenvalue, pole and root, and the solve squares
    the span 2G and Frobenius norms up to sqrt(dim) 2G, so dim (2G)^2
    must be finite. G is at most the sum of the terms below (|V_nn'|
    <= max |kernel| over unit modes); the largest names the field, the
    Laplacian's by the larger of stiffness and 1/h^2."""
    h, samples = spec.xi_grid.spacing, spec.coupling.samples
    h2 = h * h  # Python floats: inf on overflow, where ** raises
    kernel = (spec.coupling.strength if samples is None
              else float(np.max(np.abs(samples), initial=0.0)))
    terms = {
        "hg.stiffness" if spec.g_stiffness * h2 >= 1 else "grid.span":
            4 * spec.g_stiffness / h2,
        "hg.potential": float(np.max(np.abs(spec.g_potential))),
        energies_field: float(spec.modes.eps[-1]) - float(spec.modes.eps[0]),
        "coupling.g" if samples is None else "coupling.samples":
            spec.n_tot * kernel,
    }
    bound = sum(terms.values())
    if not math.isfinite(spec.dim * 4 * bound * bound):
        raise ConfigError(f"{max(terms, key=terms.get)}: operator scale "
                          f"{bound:.3e} overflows when squared at dimension "
                          f"{spec.dim}")


def build_problem(config: Mapping) -> ProblemSpec:
    """Validate a structured config document and build a ProblemSpec.

    Top-level keys: grid, modes, coupling, hg (run is tolerated here
    so one document can drive both the model and the CLI). Each
    section is an object, every number is checked by one reader, and
    unknown keys anywhere raise; each ConfigError names the field path.
    """
    _check_keys(config, ("grid", "modes", "coupling", "hg", "run"), "")

    gdoc = config.get("grid", {})
    _check_keys(gdoc, ("n", "span", "boundary"), "grid.")
    xi_grid = Grid.uniform(_number(gdoc, "n", None, "grid.", integer=True),
                           _array(gdoc.get("span", (0.0, 1.0)), "grid.span",
                                  (2,)),
                           gdoc.get("boundary", "dirichlet"))

    mdoc = config.get("modes", {})
    _check_keys(mdoc, ("count", "kind", "delta_eps", "q_n", "q_span",
                       "width_factor", "eps", "phi"), "modes.")
    n_tot = _number(mdoc, "count", None, "modes.", integer=True)
    q_grid = Grid.uniform(_number(mdoc, "q_n", 32, "modes.", integer=True),
                          _array(mdoc.get("q_span", (0.0, 1.0)),
                                 "modes.q_span", (2,)), field="modes.q_")
    kind = mdoc.get("kind", "bumps")
    if kind == "bumps":
        basis = gaussian_bump_basis(
            n_tot, q_grid, _number(mdoc, "delta_eps", 1.0, "modes."),
            _number(mdoc, "width_factor", DEFAULT_BUMP_WIDTH_FACTOR,
                    "modes."))
    elif kind == "given":
        if "eps" not in mdoc or "phi" not in mdoc:
            raise ConfigError("modes.eps/modes.phi: required for kind 'given'")
        basis = ModeBasis(_array(mdoc["eps"], "modes.eps"),
                          _array(mdoc["phi"], "modes.phi"), q_grid)
        if basis.n_modes != n_tot:
            raise ConfigError("modes.count: does not match declared eps length")
    else:
        raise ConfigError(f"modes.kind: unknown value {kind!r}")

    cdoc = config.get("coupling", {})
    _check_keys(cdoc, ("kind", "g", "sigma", "samples"), "coupling.")
    samples = cdoc.get("samples")
    coupling = CouplingSpec(
        kind=cdoc.get("kind", "gaussian_attractive"),
        strength=_number(cdoc, "g", 1.0, "coupling."),
        width=_number(cdoc, "sigma", 1.0, "coupling."),
        samples=None if samples is None
        else _array(samples, "coupling.samples"))

    hdoc = config.get("hg", {})
    _check_keys(hdoc, ("stiffness", "potential"), "hg.")
    pot = hdoc.get("potential", {"kind": "zero"})
    if isinstance(pot, Mapping):
        potential = _named_potential(pot, xi_grid)
    else:
        potential = _array(pot, "hg.potential", (xi_grid.n,))

    spec = ProblemSpec(xi_grid=xi_grid, modes=basis, coupling=coupling,
                       g_stiffness=_number(hdoc, "stiffness", 1.0, "hg."),
                       g_potential=potential)
    _check_scale(spec, "modes.delta_eps" if kind == "bumps" else "modes.eps")
    return spec
