"""Exact divisor-class arithmetic over declared surface lattices.

A surface is modelled by an ordered basis of divisor-class labels together
with a symmetric integer Gram matrix for the intersection pairing.  Divisor
classes are integer coefficient vectors over that basis.  Everything is
exact: coefficients and Gram entries are Python integers (arbitrary
precision), checked to be exactly ``int`` when a class or model is built,
and no rational or floating-point arithmetic ever enters.

Models are *declared*, not derived: the Gram entries and the registry of
classes known to be (irreducible) curves are geometric inputs, justified in
the docstrings and comments of the code that declares them.  All values are
immutable after construction, so the module is safe for unrestricted
concurrent reads: every value class derives from :class:`Value`, sets its
``__slots__`` once, in ``__init__``, and refuses assignment and ``del``.

Every tuple in the package is built from a list or from a sequence whose
length is known, never from a generator, ``map``, ``zip``, ``filter`` or
``enumerate``: with no length to go by, CPython allocates ten slots and
shrinks the tuple in place, and once freed that block goes onto the free
list of its final size, where it stays.  A run of small tuples built so
fills each of those lists to its cap of 2,000, about 1 MB that the program
never uses again.  Write ``tuple([... for ...])`` or ``(*map(f, xs),)``, or
hand a list to a constructor that makes the tuple itself.
"""

from __future__ import annotations

from operator import add, attrgetter, sub

from .errors import InvalidModel, InvalidParameter, MismatchedModel

SURFACE_KINDS = ("abelian", "blowup", "cover", "other")
_INT = frozenset((int,))
_ROWS = (tuple, list)
_set = object.__setattr__


class Value:
    """An immutable value whose ``__init__`` sets each of its ``_fields``
    once, with ``_set`` (faster, for the classes built in bulk) or
    ``_set_fields``.  ``==``, ``hash`` and ``repr`` read those fields as a
    frozen dataclass does; ``==`` with another class is ``NotImplemented``."""

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        """Set the fields named in ``_fields`` to ``values``, in order."""
        for name, value in zip(self._fields, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        """Fill a copy or an unpickled value from ``object``'s state of it."""
        for part in state:
            for name, value in (part or {}).items():
                _set(self, name, value)

    def _key(self):  # one field's value, or a tuple of them
        return attrgetter(*self._fields)(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


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


class DivisorClass(Value):
    """An exact integer coefficient vector over a model's basis.

    The owning model is referenced by id; mixing classes from different
    models in any arithmetic or pairing is a hard error, never a silent
    coercion.
    """

    __slots__ = _fields = ("model_id", "coeffs")

    def __init__(self, model_id: str, coeffs: tuple[int, ...]):
        _set(self, "model_id", model_id)
        _set(self, "coeffs", _exact_ints(coeffs, "coefficients"))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        check_on(other, self.model_id, len(self.coeffs))
        return DivisorClass(self.model_id, (*map(add, self.coeffs, other.coeffs),))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        check_on(other, self.model_id, len(self.coeffs))
        return DivisorClass(self.model_id, (*map(sub, self.coeffs, other.coeffs),))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.model_id, [-a for a in self.coeffs])

    def __mul__(self, k: int) -> "DivisorClass":
        if type(k) is not int:
            return NotImplemented
        return DivisorClass(self.model_id, [k * a for a in self.coeffs])

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


class RegisteredCurve(Value):
    """A divisor class declared to be an irreducible curve, under a label.

    Irreducibility is geometric input, never computed.
    """

    __slots__ = _fields = ("label", "cls")

    def __init__(self, label: str, cls: DivisorClass):
        if not isinstance(label, str):
            raise InvalidModel(
                f"'label' of a registered curve must be a string, got {type(label).__name__}"
            )
        if not isinstance(cls, DivisorClass):
            raise InvalidModel(
                f"'cls' of a registered curve must be a DivisorClass, got {type(cls).__name__}"
            )
        _set(self, "label", label)
        _set(self, "cls", cls)


class SurfaceModel(Value):
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
    exceptional_labels:
        basis labels that are exceptional classes of a blow-up (empty for
        models that are not blow-ups); used by the fixed-component engine
        and the enumeration oracle to span the visible effective cone.
    """

    _fields = ("model_id", "basis", "gram", "curves", "kind", "exceptional_labels")
    # ``_forcing_plan`` is built by the forcing engine at the model's first
    # forcing; a copy made with the constructor starts without one.
    __slots__ = (*_fields, "_basis_index", "_forcing_plan")

    def __init__(self, model_id: str, basis: tuple[str, ...], gram: tuple[tuple[int, ...], ...],
                 curves: tuple[RegisteredCurve, ...] = (), kind: str = "other",
                 exceptional_labels: tuple[str, ...] = ()):
        if not isinstance(model_id, str):
            raise InvalidModel(f"'model_id' must be a string, got {type(model_id).__name__}")
        _set(self, "model_id", model_id)
        fields = {"basis": basis, "curves": curves, "exceptional_labels": exceptional_labels}
        for name, value in fields.items():
            if not isinstance(value, _ROWS):
                raise InvalidModel(f"{name} must be a tuple or list, got {type(value).__name__}")
            _set(self, name, tuple(value))
        for label in self.basis:
            if not isinstance(label, str):
                raise InvalidModel(f"basis labels must be strings, got {label!r} in 'basis'")
        if not isinstance(gram, _ROWS) or not all(isinstance(r, _ROWS) for r in gram):
            raise InvalidModel("a Gram matrix must be a tuple or list of tuples or lists")
        _set(self, "gram", tuple([_exact_ints(row, "Gram entries") for row in gram]))
        _set(self, "kind", kind)
        _set(self, "_forcing_plan", None)

        n = len(self.basis)
        if n == 0:
            raise InvalidModel("a surface model needs at least one basis class")
        if len(set(self.basis)) != n:
            raise InvalidModel("basis labels must be unique")
        if kind not in SURFACE_KINDS:
            raise InvalidModel(f"'kind' must be one of {SURFACE_KINDS}, got {kind!r}")
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
        if kind == "abelian":
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
        _set(self, "_basis_index", {lab: i for i, lab in enumerate(self.basis)})

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
            raise InvalidParameter(
                f"{label!r} is not a basis label of {self.model_id!r}"
            ) from None
        coeffs = [0] * self.size
        coeffs[i] = 1
        return DivisorClass(self.model_id, tuple(coeffs))

    # -- registry ---------------------------------------------------------

    @property
    def curve_labels(self) -> tuple[str, ...]:
        return tuple([c.label for c in self.curves])

    def has_curve(self, label: str) -> bool:
        return any(c.label == label for c in self.curves)

    def curve(self, label: str) -> RegisteredCurve:
        for c in self.curves:
            if c.label == label:
                return c
        raise InvalidParameter(f"{label!r} is not a registered curve of {self.model_id!r}")

    def with_curve(self, label: str, cls: DivisorClass) -> "SurfaceModel":
        """Return a copy of the model with one more declared curve."""
        self._check_owned(cls)
        curves = self.curves + (RegisteredCurve(label, cls),)
        return SurfaceModel(
            self.model_id, self.basis, self.gram, curves, self.kind, self.exceptional_labels
        )

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
