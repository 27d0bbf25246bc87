"""Discretized Schrödinger problems: weighted point sets, marginals, kernels, I/O.

A problem bundles two weighted point sets (the state spaces with their
reference quadrature weights), two probability marginals over those sets,
and a nonnegative transition kernel.  ``validate_reduction`` applies the
support reduction -- drop atoms carrying no marginal mass, then require
every remaining row and column of the kernel to see some mass on the
other side -- after which all marginal weights are strictly positive and
the solver's identities hold pointwise.

Problems are immutable after validation and safe to share across threads.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

import numpy as np

MARGINAL_MASS_TOL = 1e-12
#: Most bytes a kernel matrix may take, ``8 n_x n_y``.  A functional kernel
#: holds one row block of differences besides it while it is built.
MAX_KERNEL_BYTES = 2**31
#: Entries of one row block of a kernel-sized sweep (512 KiB of floats).
ROW_BLOCK_ENTRIES = 1 << 16


def row_blocks(n_rows: int, n_cols: int):
    """Slices that cover ``range(n_rows)`` in order, each of about
    ``ROW_BLOCK_ENTRIES`` entries of an ``n_rows x n_cols`` matrix (one row at least)."""
    step = max(1, ROW_BLOCK_ENTRIES // max(1, n_cols))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def difference_blocks(x_points: np.ndarray, y_points: np.ndarray):
    """``(rows, y_points[None] - x_points[rows, None])`` over :func:`row_blocks` of the
    ``(n_x, n_y, d)`` differences: the one sweep of pairwise differences of two grids."""
    for rows in row_blocks(x_points.shape[0], y_points.size):
        yield rows, y_points[None] - x_points[rows, None]


def distance_blocks(x_points: np.ndarray, y_points: np.ndarray):
    """``(rows, |y - x|)`` over :func:`difference_blocks`."""
    for rows, diff in difference_blocks(x_points, y_points):
        r = np.square(diff, out=diff).sum(axis=2)
        yield rows, np.sqrt(r, out=r)


class ValidationError(ValueError):
    """A problem component violates its invariants."""


class SchemaError(ValidationError):
    """A serialized problem is missing fields or carries illegal values."""


class ParseError(ValueError):
    """A problem file could not be parsed; message carries the location."""


class IrreducibleProblem(ValidationError):
    """Support reduction failed: some point cannot exchange mass at all."""

    def __init__(self, message: str, side: str, indices: list[int]):
        super().__init__(message)
        self.side = side
        self.indices = indices


class GridTooLarge(ValidationError):
    """A grid or kernel would need more points or bytes than its cap allows."""


class EvaluationError(RuntimeError):
    """A kernel profile returned a negative or non-finite value."""


class NotSPD(ValidationError):
    """A matrix that must be symmetric positive definite is not."""


SYMMETRY_TOL = 1e-12


def _as_spd(mat, name: str) -> np.ndarray:
    """``mat`` as a symmetric positive definite float matrix, symmetric to
    ``SYMMETRY_TOL`` relative to its largest entry (or to 1); NotSPD otherwise."""
    m = np.atleast_2d(np.asarray(mat, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSPD(f"{name} must be a square matrix")
    if not np.isfinite(m).all():
        raise NotSPD(f"{name} must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    with np.errstate(over="ignore"):  # a difference past the float range is refused as asymmetric
        asymmetry = np.abs(m - m.T).max()
    if asymmetry > SYMMETRY_TOL * scale:
        raise NotSPD(f"{name} is not symmetric to {SYMMETRY_TOL:g}")
    m = m + (m.T - m) / 2.0
    if np.linalg.eigvalsh(m).min() <= 0:
        raise NotSPD(f"{name} is not positive definite")
    return m


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValidationError("points must be a nonempty list of coordinate vectors")
    if not np.isfinite(pts).all():
        raise ValidationError("points must be finite")
    return pts


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite weighted point set: grid points plus reference weights."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _as_points(self.points))
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.shape[0] != self.points.shape[0]:
            raise ValidationError("weights must align with points")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValidationError("reference weights must be finite and positive")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Marginal:
    """A probability vector over a discrete space.

    Entries may be zero before reduction; ``validate_reduction`` drops the
    zero-mass atoms and renormalizes.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.shape[0] < 1:
            raise ValidationError("marginal must be a nonempty vector")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValidationError("marginal weights must be finite and nonnegative")
        if abs(float(w.sum()) - 1.0) > MARGINAL_MASS_TOL:
            raise ValidationError(
                f"marginal mass {float(w.sum())!r} is not 1 within {MARGINAL_MASS_TOL:g}"
            )

    @property
    def size(self) -> int:
        return self.weights.shape[0]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseKernel:
    """Kernel given by its matrix of values on the grid."""

    entries: np.ndarray

    def __post_init__(self):
        # C order: equal values give equal matvec bits, whatever the caller's layout
        e = np.ascontiguousarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", e)
        if e.ndim != 2:
            raise ValidationError("dense kernel entries must form a matrix")
        if not np.isfinite(e).all() or (e < 0).any():
            raise ValidationError("dense kernel entries must be finite and nonnegative")

    def evaluate(self, x_points: np.ndarray, y_points: np.ndarray) -> np.ndarray:
        return self.entries


@dataclass(frozen=True)
class RadialKernel:
    """Kernel of the form p(x, y) = profile(|y - x|).

    ``profile_name``/``profile_params`` make the kernel serializable when
    the profile came from the registry.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    profile_name: str | None = None
    profile_params: dict | None = None

    def evaluate(self, x_points: np.ndarray, y_points: np.ndarray) -> np.ndarray:
        """The profile over :func:`distance_blocks`; :func:`kernel_matrix` checks its values."""
        out = np.empty((x_points.shape[0], y_points.shape[0]))
        with np.errstate(all="ignore"):  # kernel_matrix refuses a steep profile, unwarned
            for rows, r in distance_blocks(x_points, y_points):
                vals = np.asarray(self.profile(r), dtype=float)
                if vals.shape != r.shape:
                    raise EvaluationError("radial profile must evaluate elementwise")
                out[rows] = vals
        return out


@dataclass(frozen=True)
class GaussianKernel:
    """Kernel p(x, y) = centered Gaussian density with precision ``c`` at y - x."""

    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", _as_spd(self.c, "gaussian kernel precision"))

    def evaluate(self, x_points: np.ndarray, y_points: np.ndarray) -> np.ndarray:
        """The density ``norm exp(-quad / 2)``, ``norm`` from :func:`_gaussian_log_norm`.

        Built in row blocks (:func:`difference_blocks`), so the differences
        ``y - x`` exist for one block at a time; each entry has the bits of
        the one-shot ``einsum`` over the whole ``(n_x, n_y, d)`` array.
        """
        out = np.empty((x_points.shape[0], y_points.shape[0]))
        scaled = -0.5 * self.c  # -quad/2, scaled exactly
        with np.errstate(over="ignore", invalid="ignore"):  # refused by kernel_matrix as non-finite
            norm = np.exp(_gaussian_log_norm(self.c))
            for rows, diff in difference_blocks(x_points, y_points):
                half = np.einsum("ijk,kl,ijl->ij", diff, scaled, diff, out=out[rows])
                np.multiply(np.exp(half, out=half), norm, out=half)
        return out


def _gaussian_log_norm(precision: np.ndarray) -> float:
    """``log sqrt(det(precision) / (2 pi)^d)``, the log of a Gaussian density's
    constant.  It is taken from the log-determinant (``slogdet``), so the
    constant is finite whenever it is representable, even where
    ``det(precision)`` itself leaves the float range."""
    d = precision.shape[0]
    return 0.5 * (np.linalg.slogdet(precision)[1] - d * math.log(2.0 * math.pi))


Kernel = DenseKernel | RadialKernel | GaussianKernel

#: Radial profiles known to the serializer.
RADIAL_PROFILES: dict[str, Callable[..., Callable]] = {
    "gaussian": lambda sigma=1.0: (lambda t: np.exp(-(t * t) / (2.0 * sigma * sigma))),
    "exponential": lambda rate=1.0: (lambda t: np.exp(-rate * t)),
}


def _is_finite_number(value) -> bool:
    """True for a finite real number that is not a bool; an integer past the float range is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def make_radial_kernel(name: str, **params) -> RadialKernel:
    """Build a registry radial kernel that round-trips through JSON.

    Raises :class:`SchemaError` for an unknown profile and a parameter the
    profile does not take or that is not a finite positive number.
    """
    if not (isinstance(name, str) and name in RADIAL_PROFILES):
        raise SchemaError(f"unknown radial profile {name!r}; known: {sorted(RADIAL_PROFILES)}")
    known = inspect.signature(RADIAL_PROFILES[name]).parameters
    for key, value in params.items():
        if key not in known:
            raise SchemaError(f"radial profile {name!r} takes no parameter {key!r}; "
                              f"known: {sorted(known)}")
        if not (_is_finite_number(value) and value > 0):
            raise SchemaError(f"radial profile parameter {key!r} must be a finite positive "
                              f"number, not {value!r}")
    return RadialKernel(
        profile=RADIAL_PROFILES[name](**params),
        profile_name=name,
        profile_params=dict(params),
    )


# ---------------------------------------------------------------------------
# The problem itself
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DiscreteProblem:
    """Full data of a discretized Schrödinger system."""

    x_space: DiscreteSpace
    y_space: DiscreteSpace
    mu: Marginal
    nu: Marginal
    kernel: Kernel
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.mu.size != self.x_space.size:
            raise ValidationError("mu must have one weight per x point")
        if self.nu.size != self.y_space.size:
            raise ValidationError("nu must have one weight per y point")
        if isinstance(self.kernel, DenseKernel):
            if self.kernel.entries.shape != (self.x_space.size, self.y_space.size):
                raise ValidationError("dense kernel shape does not match the grids")
        elif self.x_space.dim != self.y_space.dim:
            raise ValidationError("functional kernels require grids of equal dimension")
        elif isinstance(self.kernel, GaussianKernel) and self.kernel.c.shape[0] != self.x_space.dim:
            raise ValidationError(f"gaussian kernel dimension {self.kernel.c.shape[0]} does not "
                                  f"match grid dimension {self.x_space.dim}")

    @property
    def n_x(self) -> int:
        return self.x_space.size

    @property
    def n_y(self) -> int:
        return self.y_space.size

    def transposed(self) -> "DiscreteProblem":
        """Swap the roles of the two spaces (kernel transposed).  A functional
        kernel depends on ``|y - x|`` or is a centered Gaussian of ``y - x``,
        so it is its own transpose."""
        kernel = self.kernel
        if isinstance(kernel, DenseKernel):
            kernel = DenseKernel(kernel.entries.T)
        return DiscreteProblem(x_space=self.y_space, y_space=self.x_space,
                               mu=self.nu, nu=self.mu, kernel=kernel)


def _read_only(mat: np.ndarray) -> np.ndarray:
    """A view of ``mat`` that refuses writes; ``mat`` itself stays writable."""
    view = mat.view()
    view.flags.writeable = False
    return view


def kernel_matrix(problem: DiscreteProblem) -> np.ndarray:
    """Materialize the kernel on the grid as a dense nonnegative matrix.

    The matrix is cached on the problem as a read-only view; a dense
    kernel's cache shares memory with its entries.
    Raises :class:`GridTooLarge`, before allocating, when the matrix's
    ``8 n_x n_y`` bytes exceed ``MAX_KERNEL_BYTES``; :class:`EvaluationError`
    for a radial profile's negative or non-finite value, and for another
    kernel's entry that is not finite, then for one that is negative.
    """
    if problem._matrix is None:
        need = 8 * problem.n_x * problem.n_y
        if need > MAX_KERNEL_BYTES:
            raise GridTooLarge(
                f"a {problem.n_x} x {problem.n_y} kernel needs {need} bytes to evaluate, "
                f"more than the cap of {MAX_KERNEL_BYTES}"
            )
        mat = problem.kernel.evaluate(problem.x_space.points, problem.y_space.points)
        # two reductions when the matrix is sound (a NaN makes its min NaN);
        # the scans that pick the message run only on failure
        if not (mat.min() >= 0.0 and mat.max() < math.inf):
            if isinstance(problem.kernel, RadialKernel):
                raise EvaluationError("radial profile returned a negative or non-finite value")
            if not np.isfinite(mat).all():
                raise EvaluationError("kernel evaluation produced non-finite entries")
            raise EvaluationError("kernel evaluation produced negative entries")
        problem._matrix = _read_only(mat)
    return problem._matrix


def validate_reduction(problem: DiscreteProblem) -> DiscreteProblem:
    """Apply the support reduction and verify mutual reachability.

    Drops every x point with zero mu-weight and every y point with zero
    nu-weight, renormalizes the marginals, and then requires each
    remaining row of the kernel to have a positive entry against some
    positive nu-weight (and symmetrically for columns).  Returns the
    reduced problem (the same object if nothing changed) or raises
    :class:`IrreducibleProblem` naming the violating indices.  The reduced
    problem keeps a Gaussian or radial kernel as it is, and a dense one is
    sliced; either way its cached matrix is the slice of the parent's.
    """
    keep_x = problem.mu.weights > 0
    keep_y = problem.nu.weights > 0
    reduced = problem
    if not keep_x.all() or not keep_y.all():
        P = kernel_matrix(problem)[np.ix_(keep_x, keep_y)]
        mu_w = problem.mu.weights[keep_x]
        nu_w = problem.nu.weights[keep_y]
        reduced = DiscreteProblem(
            x_space=DiscreteSpace(
                problem.x_space.points[keep_x], problem.x_space.weights[keep_x]
            ),
            y_space=DiscreteSpace(
                problem.y_space.points[keep_y], problem.y_space.weights[keep_y]
            ),
            mu=Marginal(mu_w / mu_w.sum()),
            nu=Marginal(nu_w / nu_w.sum()),
            kernel=DenseKernel(P) if isinstance(problem.kernel, DenseKernel) else problem.kernel,
            _matrix=_read_only(P),
        )

    P = kernel_matrix(reduced)
    if P.min() > 0.0:  # a positive kernel links every row and column
        return reduced
    rows_ok = (P > 0).any(axis=1)
    if not rows_ok.all():
        bad = np.flatnonzero(~rows_ok).tolist()
        raise IrreducibleProblem(
            f"x points {bad} carry mass but cannot reach any y point "
            "(reachability condition (i) fails)",
            side="x",
            indices=bad,
        )
    cols_ok = (P > 0).any(axis=0)
    if not cols_ok.all():
        bad = np.flatnonzero(~cols_ok).tolist()
        raise IrreducibleProblem(
            f"y points {bad} carry mass but cannot be reached from any x point "
            "(reachability condition (ii) fails)",
            side="y",
            indices=bad,
        )
    return reduced


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _require(mapping: dict, key: str, where: str):
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where} must be a JSON object")
    if key not in mapping:
        raise SchemaError(f"missing field {key!r} in {where}")
    return mapping[key]


def _numbers_only(obj) -> bool:
    """True when every leaf of the nested lists ``obj`` is a real number, not a bool or a string."""
    if not isinstance(obj, (list, tuple)):
        return not isinstance(obj, bool) and isinstance(obj, numbers.Real)
    types = set(map(type, obj))
    if types <= {float, int}:
        return True
    if types == {list}:  # rows: their items are checked together, not row by row
        return (set(map(type, chain.from_iterable(obj))) <= {float, int}
                or all(map(_numbers_only, chain.from_iterable(obj))))
    return all(map(_numbers_only, obj))


def _number_array(obj) -> np.ndarray:
    """``obj`` as a float array; ValueError for a leaf that is no number or an integer
    past the float range, or for ragged lists."""
    if not _numbers_only(obj):
        raise ValueError("expected numbers, not strings or booleans")
    try:
        return np.asarray(obj, dtype=float)
    except OverflowError as exc:
        raise ValueError(str(exc)) from exc


def _finite_floats(obj, where: str) -> np.ndarray:
    try:
        arr = _number_array(obj)
    except ValueError as exc:
        raise SchemaError(f"{where} must be numbers in lists of equal length") from exc
    if not np.isfinite(arr).all():
        raise SchemaError(f"non-finite value in {where}; 'inf' is not legal in problem inputs")
    return arr


def _space_to_dict(space: DiscreteSpace) -> dict:
    return {"points": space.points.tolist(), "weights": space.weights.tolist()}


def _space_from_dict(obj: dict, where: str) -> DiscreteSpace:
    pts = _finite_floats(_require(obj, "points", where), f"{where}.points")
    w = _finite_floats(_require(obj, "weights", where), f"{where}.weights")
    try:
        return DiscreteSpace(pts, w)
    except ValidationError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _kernel_to_dict(kernel: Kernel) -> dict:
    if isinstance(kernel, DenseKernel):
        return {"kind": "dense-matrix", "entries": kernel.entries.tolist()}
    if isinstance(kernel, GaussianKernel):
        return {"kind": "gaussian", "c": kernel.c.tolist()}
    if isinstance(kernel, RadialKernel):
        if kernel.profile_name is None:
            raise SchemaError(
                "radial kernel with a bare callable profile cannot be serialized; "
                "build it via make_radial_kernel"
            )
        return {
            "kind": "radial",
            "profile": {"name": kernel.profile_name, "params": kernel.profile_params or {}},
        }
    raise SchemaError(f"unknown kernel type {type(kernel).__name__}")


def _kernel_from_dict(obj: dict) -> Kernel:
    kind = _require(obj, "kind", "kernel")
    if kind == "dense-matrix":
        return DenseKernel(_finite_floats(_require(obj, "entries", "kernel"), "kernel.entries"))
    if kind == "gaussian":
        return GaussianKernel(_finite_floats(_require(obj, "c", "kernel"), "kernel.c"))
    if kind == "radial":
        prof = _require(obj, "profile", "kernel")
        name = _require(prof, "name", "kernel.profile")
        params = prof.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError("kernel.profile.params must be a JSON object")
        return make_radial_kernel(name, **params)
    raise SchemaError(f"unknown kernel kind {kind!r}")


def problem_to_dict(problem: DiscreteProblem) -> dict:
    return {
        "x_space": _space_to_dict(problem.x_space),
        "y_space": _space_to_dict(problem.y_space),
        "mu": problem.mu.weights.tolist(),
        "nu": problem.nu.weights.tolist(),
        "kernel": _kernel_to_dict(problem.kernel),
    }


def problem_from_dict(obj: dict) -> DiscreteProblem:
    if not isinstance(obj, dict):
        raise SchemaError("problem document must be a JSON object")
    try:
        return DiscreteProblem(
            x_space=_space_from_dict(_require(obj, "x_space", "problem"), "x_space"),
            y_space=_space_from_dict(_require(obj, "y_space", "problem"), "y_space"),
            mu=Marginal(_finite_floats(_require(obj, "mu", "problem"), "mu")),
            nu=Marginal(_finite_floats(_require(obj, "nu", "problem"), "nu")),
            kernel=_kernel_from_dict(_require(obj, "kernel", "problem")),
        )
    except ValidationError as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(str(exc)) from exc


def read_document(path: str, format: str = "json"):
    """The document in the file at ``path``, read in one of :data:`FORMATS`; a CSV
    bundle holds the problem document that :func:`problem_to_dict` makes."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    return FORMATS[format][0](path)


def save_problem(problem: DiscreteProblem, path: str, format: str = "json") -> None:
    """Write a problem's document to disk: as JSON with sorted keys (the bytes
    ``gaussian-gen`` writes) or as a CSV bundle directory."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    FORMATS[format][1](problem_to_dict(problem), path)


def load_problem(path: str, format: str = "json") -> DiscreteProblem:
    """Read a problem from disk; inverse of :func:`save_problem`."""
    return problem_from_dict(read_document(path, format))


def _read_json(path: str):
    """The JSON document in ``path``; a syntax error raises ParseError naming the place."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _dumps(obj, level: int = 0) -> str:
    """``obj`` as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it, nested ``level`` deep.

    Numpy arrays and scalars are written as lists and numbers, and
    infinite and NaN floats as the strings "inf" and "nan".  A nonempty
    1-D float array with only finite entries is written straight from
    ``float.__repr__``, as the json encoder writes floats, with one
    ``isfinite`` check per array instead of one per element.
    """
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim == 1 and obj.size and np.isfinite(obj).all():
            items = map(float.__repr__, obj.tolist())
            return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"
        obj = obj.tolist()
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float.__repr__(f) if math.isfinite(f) else '"nan"' if math.isnan(f) else '"inf"'
    if isinstance(obj, np.integer):
        return str(int(obj))
    # generators, not lists: an item (a large array of a report) is freed
    # once joined, not held through the copies of the concatenation
    if isinstance(obj, dict):
        brackets = "{}"
        items = (f"{json.dumps(k)}: {_dumps(obj[k], level + 1)}" for k in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = (_dumps(v, level + 1) for v in obj)
    else:  # str, int, bool and None; json raises TypeError on anything else
        return json.dumps(obj)
    if not obj:
        return brackets
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _write_report(payload: dict, path: str | None) -> None:
    _write_text(_dumps(payload) + "\n", path)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_csv(path: str, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _save_csv_bundle(doc: dict, dirpath: str) -> None:
    """Write a dense problem's document as a bundle: ``x/`` and ``y/`` with
    ``points.csv`` and ``weights.csv``, then ``marginals.csv`` and ``kernel.csv``."""
    if doc["kernel"]["kind"] != "dense-matrix":
        raise SchemaError("csv-bundle supports dense kernels only")
    for sub in ("x", "y"):
        space = doc[f"{sub}_space"]
        os.makedirs(os.path.join(dirpath, sub), exist_ok=True)
        _write_csv(os.path.join(dirpath, sub, "points.csv"), space["points"])
        _write_csv(os.path.join(dirpath, sub, "weights.csv"), [[w] for w in space["weights"]])
    rows = [["space", "index", "weight"]]
    rows += [["x", i, w] for i, w in enumerate(doc["mu"])]
    rows += [["y", j, w] for j, w in enumerate(doc["nu"])]
    _write_csv(os.path.join(dirpath, "marginals.csv"), rows)
    _write_csv(os.path.join(dirpath, "kernel.csv"), doc["kernel"]["entries"])


def _read_csv(path: str) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _float_cell(cell: str, path: str, line: int) -> float:
    try:
        v = float(cell)
    except ValueError as exc:
        raise ParseError(f"{path}: line {line}: bad float {cell!r}") from exc
    if not math.isfinite(v):
        raise SchemaError(f"{path}: line {line}: non-finite value in problem input")
    return v


def _float_rows(path: str) -> list[list[float]]:
    return [[_float_cell(c, path, i + 1) for c in row] for i, row in enumerate(_read_csv(path))]


def _load_csv_bundle(dirpath: str) -> dict:
    """The problem document of the bundle at ``dirpath``, each mass placed by
    its index.  A cell that does not parse, a ``weights.csv`` row of more than
    one cell, or a ``marginals.csv`` space other than ``x`` and ``y``, raises
    ParseError; a mass index out of range, repeated or missing raises
    SchemaError; each names the file.  The problem's own rules are
    :func:`problem_from_dict`'s, as for JSON."""
    doc, masses = {}, {}  # a mass is None until its line is read
    for sub in ("x", "y"):
        wpath = os.path.join(dirpath, sub, "weights.csv")
        points = _float_rows(os.path.join(dirpath, sub, "points.csv"))
        weights = _float_rows(wpath)
        for i, row in enumerate(weights):
            if len(row) != 1:
                raise ParseError(f"{wpath}: line {i + 1}: expected 1 field")
        doc[f"{sub}_space"] = {"points": points, "weights": [row[0] for row in weights]}
        masses[sub] = [None] * len(points)
    mpath = os.path.join(dirpath, "marginals.csv")
    for i, row in enumerate(_read_csv(mpath)):
        line = i + 1
        if i == 0 and row[0] == "space":
            continue
        if len(row) != 3:
            raise ParseError(f"{mpath}: line {line}: expected 3 fields")
        if row[0] not in masses:
            raise ParseError(f"{mpath}: line {line}: space must be 'x' or 'y', not {row[0]!r}")
        try:
            idx = int(row[1])
        except ValueError as exc:
            raise ParseError(f"{mpath}: line {line}: bad index {row[1]!r}") from exc
        w = _float_cell(row[2], mpath, line)
        side = masses[row[0]]
        if not 0 <= idx < len(side):
            raise SchemaError(f"{mpath}: line {line}: index {idx} outside [0, {len(side)})")
        if side[idx] is not None:
            raise SchemaError(f"{mpath}: line {line}: index {idx} of space {row[0]!r} repeated")
        side[idx] = w
    for sub, side in masses.items():
        if None in side:
            raise SchemaError(f"{mpath}: no mass for index {side.index(None)} of space {sub!r}")
    entries = _float_rows(os.path.join(dirpath, "kernel.csv"))
    return {**doc, "mu": masses["x"], "nu": masses["y"],
            "kernel": {"kind": "dense-matrix", "entries": entries}}


#: Problem file formats: each name's reader of the document at a path, and
#: writer of a document to a path.
FORMATS = {
    "json": (_read_json, _write_report),
    "csv-bundle": (_load_csv_bundle, _save_csv_bundle),
}
