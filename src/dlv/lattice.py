"""Exact divisor-class arithmetic over declared surface lattices.

A surface is modelled by an ordered basis of divisor-class labels together
with a symmetric integer Gram matrix for the intersection pairing.  Divisor
classes are integer coefficient vectors over that basis.  Everything is
exact: coefficients and Gram entries are Python integers (arbitrary
precision), checked to be exactly ``int`` when a class or model is built,
and no rational or floating-point arithmetic ever enters.

Models are *declared*, not derived: the Gram entries and the registry of
classes known to be (irreducible) curves are geometric inputs, each carried
with a free-text provenance note.  All values are immutable after
construction, so the module is safe for unrestricted concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InvalidModel, InvalidParameter, MismatchedModel, UnknownCurve

SURFACE_KINDS = ("abelian", "blowup", "cover", "other")
_INT = frozenset((int,))
_ROWS = (tuple, list)


def exact_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` if it is exactly an ``int`` (never a bool, float or str)
    and at least ``minimum``; ``InvalidParameter`` otherwise."""
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise InvalidParameter(f"{what} must be an integer{bound}, got {value!r}")
    return value


def _exact_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple; ``InvalidModel`` unless each is exactly an
    ``int``.  The vector form of :func:`exact_int`, for coefficients and
    Gram rows."""
    values = tuple(values)
    if not _INT.issuperset(map(type, values)):
        bad = next(x for x in values if type(x) is not int)
        raise InvalidModel(f"{what} must be integers, got {bad!r}")
    return values


@dataclass(frozen=True)
class DivisorClass:
    """An exact integer coefficient vector over a model's basis.

    The owning model is referenced by id; mixing classes from different
    models in any arithmetic or pairing is a hard error, never a silent
    coercion.
    """

    model_id: str
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _exact_ints(self.coeffs, "coefficients"))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        check_on(other, self.model_id, len(self.coeffs))
        return DivisorClass(self.model_id, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        check_on(other, self.model_id, len(self.coeffs))
        return DivisorClass(self.model_id, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model_id, tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "DivisorClass":
        if type(k) is not int:
            return NotImplemented
        return DivisorClass(self.model_id, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)


def check_on(d, model_id: str, size: int) -> None:
    """Raise unless ``d`` is a class on ``model_id`` with ``size``
    coefficients: ``TypeError`` for a non-class, ``MismatchedModel`` else."""
    if not isinstance(d, DivisorClass):
        raise TypeError(f"expected a DivisorClass, got {type(d).__name__}")
    if d.model_id != model_id:
        raise MismatchedModel(f"class belongs to model {d.model_id!r}, not {model_id!r}")
    if len(d.coeffs) != size:
        raise MismatchedModel(f"class has {len(d.coeffs)} coefficients, expected {size}")


@dataclass(frozen=True)
class RegisteredCurve:
    """A divisor class declared to be an irreducible curve, with provenance.

    Irreducibility is geometric input, never computed; the note records
    where the declaration comes from.
    """

    label: str
    cls: DivisorClass
    note: str = ""

    def __post_init__(self):
        for name in ("label", "note"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise InvalidModel(
                    f"{name!r} of a registered curve must be a string, "
                    f"got {type(value).__name__}"
                )


@dataclass(frozen=True)
class SurfaceModel:
    """A declared divisor-class lattice for one surface.

    Fields
    ------
    model_id:
        unique identifier; divisor classes carry it to prevent cross-model
        arithmetic.
    basis:
        ordered labels of the generating classes.
    gram:
        symmetric integer matrix of pairwise intersection numbers.
    curves:
        ordered registry of classes declared to be irreducible curves.
    kind:
        one of ``abelian``, ``blowup``, ``cover``, ``other``; an abelian
        model rejects registered curves of negative self-intersection
        (an abelian surface carries none).
    provenance:
        free-text notes justifying the declared data.
    exceptional_labels:
        basis labels that are exceptional classes of a blow-up (empty for
        models that are not blow-ups); used by the fixed-component engine
        and the enumeration oracle to span the visible effective cone.
    """

    model_id: str
    basis: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    curves: tuple[RegisteredCurve, ...] = ()
    kind: str = "other"
    provenance: tuple[str, ...] = ()
    exceptional_labels: tuple[str, ...] = ()
    _basis_index: dict = field(init=False, repr=False, compare=False)
    # Built by the forcing engine at the model's first forcing; a copy made
    # with ``replace`` starts without one.
    _forcing_plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.model_id, str):
            raise InvalidModel(
                f"'model_id' must be a string, got {type(self.model_id).__name__}"
            )
        for name in ("basis", "curves", "provenance", "exceptional_labels"):
            value = getattr(self, name)
            if not isinstance(value, _ROWS):
                raise InvalidModel(f"{name} must be a tuple or list, got {type(value).__name__}")
            object.__setattr__(self, name, tuple(value))
        for label in self.basis:
            if not isinstance(label, str):
                raise InvalidModel(f"basis labels must be strings, got {label!r} in 'basis'")
        for note in self.provenance:
            if not isinstance(note, str):
                raise InvalidModel(
                    f"each entry of 'provenance' must be a string, got {type(note).__name__}"
                )
        if not isinstance(self.gram, _ROWS) or not all(isinstance(r, _ROWS) for r in self.gram):
            raise InvalidModel("a Gram matrix must be a tuple or list of tuples or lists")
        object.__setattr__(
            self, "gram", tuple(_exact_ints(row, "Gram entries") for row in self.gram)
        )

        n = len(self.basis)
        if n == 0:
            raise InvalidModel("a surface model needs at least one basis class")
        if len(set(self.basis)) != n:
            raise InvalidModel("basis labels must be unique")
        if self.kind not in SURFACE_KINDS:
            raise InvalidModel(f"'kind' must be one of {SURFACE_KINDS}, got {self.kind!r}")
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise InvalidModel(f"Gram matrix must be {n}x{n}")
        for i in range(n):
            for j in range(i + 1, n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise InvalidModel(
                        f"Gram matrix is not symmetric at ({i},{j}): "
                        f"{self.gram[i][j]} != {self.gram[j][i]}"
                    )
        seen = set()
        for curve in self.curves:
            if not isinstance(curve, RegisteredCurve):
                raise InvalidModel(
                    f"registered curves must be RegisteredCurve, got {type(curve).__name__}"
                )
            if curve.label in seen:
                raise InvalidModel(f"duplicate registered curve label {curve.label!r}")
            seen.add(curve.label)
            if curve.cls.model_id != self.model_id:
                raise InvalidModel(
                    f"registered curve {curve.label!r} belongs to model "
                    f"{curve.cls.model_id!r}, not {self.model_id!r}"
                )
            if len(curve.cls.coeffs) != n:
                raise InvalidModel(
                    f"registered curve {curve.label!r} has {len(curve.cls.coeffs)} "
                    f"coefficients, expected {n}"
                )
            if curve.cls.is_zero:
                raise InvalidModel(f"registered curve {curve.label!r} is the zero class")
        if self.kind == "abelian":
            for curve in self.curves:
                sq = self.self_int(curve.cls)
                if sq < 0:
                    raise InvalidModel(
                        f"abelian model cannot register curve {curve.label!r} "
                        f"with negative self-intersection {sq}"
                    )
        for label in self.exceptional_labels:
            if label not in self.basis:
                raise InvalidModel(f"exceptional label {label!r} is not a basis label")
        object.__setattr__(self, "_basis_index", {lab: i for i, lab in enumerate(self.basis)})

    # -- construction helpers -------------------------------------------

    @property
    def size(self) -> int:
        return len(self.basis)

    def divisor_class(self, coeffs) -> DivisorClass:
        c = tuple(coeffs)
        if len(c) != self.size:
            raise InvalidModel(f"expected {self.size} coefficients, got {len(c)}")
        return DivisorClass(self.model_id, c)

    def zero(self) -> DivisorClass:
        return DivisorClass(self.model_id, (0,) * self.size)

    def basis_class(self, label: str) -> DivisorClass:
        try:
            i = self._basis_index[label]
        except KeyError:
            raise UnknownCurve(f"{label!r} is not a basis label of {self.model_id!r}") from None
        coeffs = [0] * self.size
        coeffs[i] = 1
        return DivisorClass(self.model_id, tuple(coeffs))

    # -- registry ---------------------------------------------------------

    @property
    def curve_labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.curves)

    def has_curve(self, label: str) -> bool:
        return any(c.label == label for c in self.curves)

    def curve(self, label: str) -> RegisteredCurve:
        for c in self.curves:
            if c.label == label:
                return c
        raise UnknownCurve(f"{label!r} is not a registered curve of {self.model_id!r}")

    def with_curve(self, label: str, cls: DivisorClass, note: str = "") -> "SurfaceModel":
        """Return a copy of the model with one more declared curve."""
        self._check_owned(cls)
        return replace(self, curves=self.curves + (RegisteredCurve(label, cls, note),))

    # -- pairing ----------------------------------------------------------

    def _check_owned(self, d: DivisorClass) -> None:
        check_on(d, self.model_id, self.size)

    def pair(self, d1: DivisorClass, d2: DivisorClass) -> int:
        """Evaluate the intersection form: d1^T . gram . d2, exactly."""
        self._check_owned(d1)
        self._check_owned(d2)
        gram = self.gram
        total = 0
        for i, a in enumerate(d1.coeffs):
            if a:
                row = gram[i]
                acc = 0
                for j, b in enumerate(d2.coeffs):
                    if b:
                        acc += row[j] * b
                total += a * acc
        return total

    def self_int(self, d: DivisorClass) -> int:
        """Self-intersection d^2 = pair(d, d)."""
        return self.pair(d, d)


def format_class(model: SurfaceModel, d: DivisorClass) -> str:
    """Render a class as a signed combination of basis labels, e.g.
    ``F + Gamma_n - 2*e_1``.  The zero class renders as ``0``."""
    model._check_owned(d)
    parts = []
    for label, c in zip(model.basis, d.coeffs):
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        term = label if mag == 1 else f"{mag}*{label}"
        parts.append((sign, term))
    if not parts:
        return "0"
    first_sign, first_term = parts[0]
    out = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out
