"""Builders for the surface tower and the two functorial constructions.

Two generic constructions act on declared lattice models:

* ``blow_up`` replaces declared points by exceptional classes e_i with
  e_i^2 = -1, orthogonal to every pulled-back class; registered curves
  reappear as strict transforms (pullback minus declared multiplicities
  times exceptionals).
* ``double_cover`` passes to the index-two sublattice pulled back from the
  base; pairings of pulled-back classes scale by the cover degree 2.

Both keep the base basis, in order, as the first labels of the new basis
(a blow-up appends its exceptional labels), so pulling a class back keeps
its coefficients and adds a 0 for each exceptional class.

The specific tower this package verifies starts from the product of an
elliptic curve with itself.  Writing F and G for the two fiber classes and
Gamma_n for the kernel curve of (x, y) |-> nx + 2y (n odd, so the kernel is
a connected smooth elliptic curve), the declared intersection numbers are

    F^2 = G^2 = Gamma_n^2 = 0,   F.G = 1,   F.Gamma_n = 4,   G.Gamma_n = n^2.

F meets Gamma_n transversely in four points; three of them get blown up on
the base, and the corresponding three chosen preimages on the double cover
(branched away from those points, along a smooth member of |2(F+G)|) get
blown up upstairs.  ``build_tower`` assembles all four models plus the
named classes the verifier and the CLI work with.

Multiplicities of curves at blown-up points are *declared inputs* carried
by :class:`PointSpec` (a lattice model cannot compute geometric
multiplicity): transverse crossings contribute 1, ordinary nodes 2.
"""

from __future__ import annotations

from collections.abc import Mapping

from .errors import InvalidParameter, MismatchedModel
from .lattice import DivisorClass, RegisteredCurve, SurfaceModel, Value, _set, check_on, exact_int


class MorphismMap(Value):
    """Pullback data for a blow-up or a double cover.

    ``source_model`` is the constructed surface (the domain of the
    morphism), ``target_model`` the base it maps onto, and ``target_size``
    the size of the base basis.  Both constructions keep the base basis,
    in order, as the first labels of the new one; a blow-up appends its
    ``exceptional_labels``.  So a pullback keeps a class's coefficients and
    puts 0 on each exceptional class.  Covers retain the half-branch class
    for later section splitting.
    """

    __slots__ = _fields = ("kind", "source_model", "target_model", "target_size",
                           "exceptional_labels", "branch_half")

    def __init__(self, kind: str, source_model: str, target_model: str, target_size: int,
                 exceptional_labels: tuple[str, ...] = (),
                 branch_half: DivisorClass | None = None):
        if kind not in ("blowup", "cover"):
            raise InvalidParameter(f"unknown morphism kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "source_model", source_model)
        _set(self, "target_model", target_model)
        _set(self, "target_size", target_size)
        _set(self, "exceptional_labels", exceptional_labels)
        _set(self, "branch_half", branch_half)


class PointSpec(Value):
    """A point to blow up, with declared curve multiplicities.

    ``declared_multiplicities`` maps registered-curve labels to the
    multiplicity of that curve at the point (1 for a transverse branch,
    2 for an ordinary node).  Values are declared geometric inputs, never
    computed, and each must be an ``int`` >= 0.  Absent labels mean
    multiplicity 0.  The mapping is stored as sorted (label, multiplicity)
    pairs.
    """

    __slots__ = _fields = ("label", "declared_multiplicities")

    def __init__(self, label: str, declared_multiplicities: Mapping[str, int] = {}):
        given = declared_multiplicities  # read, never stored, so a shared default is safe
        if not isinstance(given, Mapping):
            raise InvalidParameter(
                f"declared multiplicities at {label!r} must be a mapping of "
                f"curve labels to ints, got {type(given).__name__}"
            )
        for curve, mult in given.items():
            if not isinstance(curve, str):
                raise InvalidParameter(f"curve labels at {label!r} must be strings, got {curve!r}")
            exact_int(mult, f"multiplicity of {curve!r} at {label!r}", 0)
        _set(self, "label", label)
        _set(self, "declared_multiplicities", tuple(sorted(given.items())))

    def multiplicity(self, curve_label: str) -> int:
        for label, mult in self.declared_multiplicities:
            if label == curve_label:
                return mult
        return 0


def pullback(morphism: MorphismMap, d: DivisorClass) -> DivisorClass:
    """Pull ``d`` back: its coefficients, then a 0 per exceptional class."""
    check_on(d, morphism.target_model, morphism.target_size)
    zeros = (0,) * len(morphism.exceptional_labels)
    return DivisorClass(morphism.source_model, d.coeffs + zeros)


def blow_up(
    model: SurfaceModel,
    points: list[PointSpec] | tuple[PointSpec, ...],
    exceptional_labels: tuple[str, ...] | None = None,
) -> tuple[SurfaceModel, MorphismMap]:
    """Blow up declared points of ``model``.

    The new basis is the pullback of the old basis (same labels) followed
    by one exceptional label per point.  The Gram matrix extends by
    e_i^2 = -1, e_i.e_j = 0 and e_i orthogonal to all pullbacks, so
    pullbacks pair exactly as they did downstairs.  Every registered curve
    C reappears as its strict transform C' = pullback(C) - sum of declared
    multiplicities times exceptionals, re-registered under the primed label
    and declared irreducible.
    """
    points = tuple(points)
    if not points:
        raise InvalidParameter("blow_up needs at least one point")
    for p in points:
        for label, _ in p.declared_multiplicities:
            if not model.has_curve(label):
                raise InvalidParameter(
                    f"point {p.label!r} declares a multiplicity for {label!r}, "
                    f"which is not a registered curve of {model.model_id!r}"
                )
    k = len(points)
    if exceptional_labels is None:
        exceptional_labels = tuple([f"e_{i + 1}" for i in range(k)])
    else:
        exceptional_labels = tuple(exceptional_labels)
    if len(exceptional_labels) != k:
        raise InvalidParameter(f"need {k} exceptional labels, got {len(exceptional_labels)}")
    for label in exceptional_labels:
        if label in model.basis:
            raise InvalidParameter(
                f"exceptional label {label!r} collides with an existing basis label"
            )

    old_n = model.size
    new_id = f"blowup({model.model_id};{','.join(exceptional_labels)})"
    new_basis = model.basis + exceptional_labels
    new_gram = [row + (0,) * k for row in model.gram] + [
        (0,) * (old_n + i) + (-1,) + (0,) * (k - 1 - i) for i in range(k)
    ]

    morphism = MorphismMap(
        kind="blowup",
        source_model=new_id,
        target_model=model.model_id,
        target_size=old_n,
        exceptional_labels=exceptional_labels,
    )

    curves = [
        RegisteredCurve(
            curve.label + "'",
            strict_transform(morphism, curve.cls, [p.multiplicity(curve.label) for p in points]),
        )
        for curve in model.curves
    ]

    new_model = SurfaceModel(
        model_id=new_id,
        basis=new_basis,
        gram=new_gram,
        curves=curves,
        kind="blowup",
        exceptional_labels=model.exceptional_labels + exceptional_labels,
    )
    return new_model, morphism


def strict_transform(
    morphism: MorphismMap, d: DivisorClass, mults: list[int] | tuple[int, ...]
) -> DivisorClass:
    """Pullback of ``d`` with ``-mults`` on the exceptional classes; each
    multiplicity must be an ``int`` >= 0."""
    if morphism.kind != "blowup":
        raise InvalidParameter("strict_transform needs a blow-up morphism")
    k = len(morphism.exceptional_labels)
    if len(mults) != k:
        raise InvalidParameter(f"need {k} multiplicities, got {len(mults)}")
    for label, m in zip(morphism.exceptional_labels, mults):
        exact_int(m, f"multiplicity at {label}", 0)
    check_on(d, morphism.target_model, morphism.target_size)
    return DivisorClass(morphism.source_model, d.coeffs + tuple([-m for m in mults]))


def double_cover(
    model: SurfaceModel, branch_half: DivisorClass
) -> tuple[SurfaceModel, MorphismMap]:
    """Degree-2 cyclic cover branched along a smooth member of |2 R|,
    where R = ``branch_half``.

    The new model represents the pullback sublattice: same basis labels,
    Gram matrix doubled.  Registered curves carry over as declared
    pullback curves.  The morphism retains R, because the pushforward of
    the cover's structure sheaf splits as O + O(-R) and section counting
    later needs the second summand.
    """
    model._check_owned(branch_half)
    new_id = f"double_cover({model.model_id})"
    new_gram = [[2 * x for x in row] for row in model.gram]
    morphism = MorphismMap(
        kind="cover",
        source_model=new_id,
        target_model=model.model_id,
        target_size=model.size,
        branch_half=branch_half,
    )
    curves = [RegisteredCurve(c.label, pullback(morphism, c.cls)) for c in model.curves]
    new_model = SurfaceModel(
        model_id=new_id,
        basis=model.basis,
        gram=new_gram,
        curves=curves,
        kind="cover",
        exceptional_labels=model.exceptional_labels,
    )
    return new_model, morphism


# -- the verified tower ----------------------------------------------------


def check_odd_n(n: int) -> int:
    """Return ``n`` if it is an odd integer >= 3; raise otherwise.

    The single check behind every n the package accepts (the tower, the
    certificate threshold, the CLI ranges).  Bools are rejected although
    they are ints: ``True`` is not a surface parameter.
    """
    if exact_int(n, "n") < 3 or n % 2 == 0:
        raise InvalidParameter(f"n must be an odd integer >= 3, got {n}")
    return n


def build_abelian_product(n: int) -> SurfaceModel:
    """Model of the self-product of an elliptic curve, for odd n >= 3.

    Basis (F, G, Gamma_n): the two fiber classes and the kernel curve of
    (x, y) |-> nx + 2y.  Gram matrix::

        [[0, 1,   4 ],
         [1, 0,  n^2],
         [4, n^2, 0 ]]

    All three classes are smooth elliptic curves, registered as such
    (Gamma_n is connected because gcd(n, 2) = 1).  The declared numbers:

    * F^2 = G^2 = 0: distinct fibers of a projection are disjoint;
    * F.G = 1: the two fibers cross exactly once, transversely (a supplied
      value, forced by the product structure and stated nowhere upstream);
    * F.Gamma_n = 4: F meets the kernel curve in the four 2-torsion points
      of a fiber (multiplication by 2 is etale);
    * G.Gamma_n = n^2: G meets the kernel curve in the n^2 n-torsion points
      of a fiber (multiplication by n is etale);
    * Gamma_n^2 = 0: adjunction for a smooth elliptic curve on an abelian
      surface.
    """
    check_odd_n(n)
    model_id = f"abelian_product(n={n})"
    gram = (
        (0, 1, 4),
        (1, 0, n * n),
        (4, n * n, 0),
    )
    mk = lambda *coeffs: DivisorClass(model_id, coeffs)
    curves = (
        RegisteredCurve("F", mk(1, 0, 0)),
        RegisteredCurve("G", mk(0, 1, 0)),
        RegisteredCurve("Gamma_n", mk(0, 0, 1)),
    )
    return SurfaceModel(
        model_id=model_id,
        basis=("F", "G", "Gamma_n"),
        gram=gram,
        curves=curves,
        kind="abelian",
    )


class Tower(Value):
    """The four models and three morphisms the verifier works with, plus
    the named classes bound by reports and the CLI expression grammar:

    ============  =============================  ======================
    name          class                          lives on
    ============  =============================  ======================
    F, G, G_n     fiber / fiber / kernel curve   base
    R             F + G (half the branch class)  base
    A             F + G_n                        base
    L             strict transform of A          base blow-up
    D             strict transform of the        cover blow-up
                  nodal member pulled upstairs
    ============  =============================  ======================
    """

    __slots__ = _fields = ("n", "base", "base_blowup", "cover", "cover_blowup",
                           "base_blowup_map", "cover_map", "cover_blowup_map", "classes")

    def __init__(self, n: int, base: SurfaceModel, base_blowup: SurfaceModel, cover: SurfaceModel,
                 cover_blowup: SurfaceModel, base_blowup_map: MorphismMap, cover_map: MorphismMap,
                 cover_blowup_map: MorphismMap, classes: dict[str, DivisorClass]):
        self._set_fields(n, base, base_blowup, cover, cover_blowup, base_blowup_map, cover_map,
                         cover_blowup_map, classes)

    def _key(self) -> tuple:  # ``classes`` is left out of ``==`` and ``hash``
        return tuple([getattr(self, name) for name in self._fields[:-1]])

    @property
    def models(self) -> tuple[SurfaceModel, ...]:
        return (self.base, self.base_blowup, self.cover, self.cover_blowup)

    def model_of(self, d: DivisorClass) -> SurfaceModel:
        for m in self.models:
            if m.model_id == d.model_id:
                return m
        raise MismatchedModel(f"{d.model_id!r} is not a model of this tower")


def build_tower(n: int) -> Tower:
    """Build the full tower for one odd n: the abelian product, its
    blow-up at three of the four transverse F-meets-Gamma_n points, the
    double cover branched away from them, and the cover's blow-up at the
    three chosen nodal preimages."""
    base = build_abelian_product(n)
    f_cls = base.basis_class("F")
    g_cls = base.basis_class("G")
    kernel_cls = base.basis_class("Gamma_n")
    ample_half = f_cls + g_cls  # R = F + G, half the branch class
    member = f_cls + kernel_cls  # A = F + Gamma_n, the verified class downstairs

    transverse_points = [PointSpec(f"p_{i}", {"F": 1, "Gamma_n": 1}) for i in (1, 2, 3)]
    base_blowup, base_blowup_map = blow_up(base, transverse_points)
    one_dim_cls = strict_transform(base_blowup_map, member, (2, 2, 2))  # L

    cover, cover_map = double_cover(base, ample_half)
    # A_n, the pullback of the member F + Gamma_n: the cover is etale over
    # the three chosen transverse points, so A_n has an ordinary node
    # (declared multiplicity 2) at each chosen preimage
    cover = cover.with_curve("A_n", pullback(cover_map, member))
    nodal_points = [PointSpec(f"q_{i}", {"F": 1, "Gamma_n": 1, "A_n": 2}) for i in (1, 2, 3)]
    cover_blowup, cover_blowup_map = blow_up(
        cover, nodal_points, exceptional_labels=("E_1", "E_2", "E_3")
    )
    headline_cls = strict_transform(
        cover_blowup_map, pullback(cover_map, member), (2, 2, 2)
    )  # D

    classes = {
        "F": f_cls,
        "G": g_cls,
        "G_n": kernel_cls,
        "R": ample_half,
        "A": member,
        "L": one_dim_cls,
        "D": headline_cls,
    }
    return Tower(
        n=n,
        base=base,
        base_blowup=base_blowup,
        cover=cover,
        cover_blowup=cover_blowup,
        base_blowup_map=base_blowup_map,
        cover_map=cover_map,
        cover_blowup_map=cover_blowup_map,
        classes=classes,
    )
