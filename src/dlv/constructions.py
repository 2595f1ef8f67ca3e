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
its coefficients and adds a 0 for each exceptional class.  Each also
returns the :class:`MorphismMap` that holds the new model and the base.

The specific tower this package verifies starts from the product of an
elliptic curve with itself.  Writing F and G for the two fiber classes and
Gamma_n for the kernel curve of (x, y) |-> nx + 2y (n odd, so the kernel is
a connected smooth elliptic curve), the declared intersection numbers are

    F^2 = G^2 = Gamma_n^2 = 0,   F.G = 1,   F.Gamma_n = 4,   G.Gamma_n = n^2.

F meets Gamma_n transversely in four points; three of them get blown up on
the base, and the corresponding three chosen preimages on the double cover
(branched away from those points, along a smooth member of |2(F+G)|) get
blown up upstairs.  ``build_tower`` assembles the three maps between the
four models, plus the named classes the verifier and the CLI work with.

Multiplicities of curves at blown-up points are *declared inputs* (a
lattice model cannot compute geometric multiplicity), given to
``blow_up`` under each point's exceptional label: transverse crossings
contribute 1, ordinary nodes 2.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import attrgetter

from .errors import InvalidParameter, MismatchedModel
from .lattice import (_ROWS, DivisorClass, RegisteredCurve, SurfaceModel, Value, check_on,
                      check_type, exact_int)


class MorphismMap(Value):
    """Pullback data for a blow-up or a double cover.

    ``source`` is the constructed surface (the domain of the morphism) and
    ``target`` the base it maps onto, both as ``SurfaceModel``s.  Both
    constructions keep the base basis, in order, as the first labels of the
    new one, and a blow-up appends its ``exceptional_labels``, read from the
    two models.  So a pullback keeps a class's coefficients and puts 0 on
    each exceptional class.  Covers retain the half-branch class, a class
    on the target, for later section splitting.
    """

    __slots__ = _fields = ("kind", "source", "target", "branch_half")

    def __init__(self, kind: str, source: SurfaceModel, target: SurfaceModel,
                 branch_half: DivisorClass | None = None):
        if kind not in ("blowup", "cover"):
            raise InvalidParameter(f"unknown morphism kind {kind!r}")
        for end, model in (("source", source), ("target", target)):
            if not isinstance(model, SurfaceModel):
                raise InvalidParameter(
                    f"the {end} of a morphism must be a SurfaceModel, got {type(model).__name__}"
                )
        cover = kind == "cover"
        if source.basis[:target.size] != target.basis or (source.size == target.size) != cover:
            shape = "equal to" if cover else "longer than, and opening with,"
            raise InvalidParameter(f"a {kind} needs a source basis {shape} its target's: "
                                   f"{source.basis} over {target.basis}")
        if (branch_half is not None) != cover:
            raise InvalidParameter(f"a {kind} {'needs a' if cover else 'takes no'} branch half")
        if cover:
            target._check_owned(branch_half)
        self._set_fields(kind, source, target, branch_half)

    @property
    def exceptional_labels(self) -> tuple[str, ...]:
        return self.source.basis[self.target.size:]


def pullback(morphism: MorphismMap, d: DivisorClass) -> DivisorClass:
    """Pull ``d`` back: its coefficients, then a 0 per exceptional class."""
    check_type(morphism, MorphismMap, "pullback")
    source, target = morphism.source, morphism.target
    target._check_owned(d)
    return DivisorClass(source.model_id, d.coeffs + (0,) * (source.size - target.size))


def blow_up(
    model: SurfaceModel, points: Mapping[str, Mapping[str, int]]
) -> tuple[SurfaceModel, MorphismMap]:
    """Blow up declared points of ``model``.

    ``points`` maps the exceptional label of each point, in basis order, to
    its declared multiplicities: a mapping from registered-curve labels to
    the multiplicity of that curve at the point (1 for a transverse branch,
    2 for an ordinary node), each an ``int`` >= 0.  They are geometric
    inputs, never computed; an absent curve has multiplicity 0.

    The new basis is the pullback of the old basis (same labels) followed
    by the exceptional labels.  The Gram matrix extends by
    e_i^2 = -1, e_i.e_j = 0 and e_i orthogonal to all pullbacks, so
    pullbacks pair exactly as they did downstairs.  Every registered curve
    C reappears as its strict transform C' = pullback(C) - sum of declared
    multiplicities times exceptionals, re-registered under the primed label
    and declared irreducible.
    """
    check_type(model, SurfaceModel, "blow_up")
    if not isinstance(points, Mapping):
        raise InvalidParameter(
            f"blow_up needs a mapping of exceptional labels to multiplicities, "
            f"got {type(points).__name__}"
        )
    if not points:
        raise InvalidParameter("blow_up needs at least one point")
    curve_labels = {c.label for c in model.curves}
    for label, given in points.items():
        if not isinstance(label, str):
            raise InvalidParameter(f"point labels must be strings, got {label!r}")
        if label in model.basis:
            raise InvalidParameter(
                f"exceptional label {label!r} collides with an existing basis label"
            )
        if not isinstance(given, Mapping):
            raise InvalidParameter(
                f"declared multiplicities at {label!r} must be a mapping of "
                f"curve labels to ints, got {type(given).__name__}"
            )
        for curve, mult in given.items():
            if not isinstance(curve, str):
                raise InvalidParameter(f"curve labels at {label!r} must be strings, got {curve!r}")
            if curve not in curve_labels:
                raise InvalidParameter(
                    f"point {label!r} declares a multiplicity for {curve!r}, "
                    f"which is not a registered curve of {model.model_id!r}"
                )
            exact_int(mult, f"multiplicity of {curve!r} at {label!r}", 0)
    exceptional_labels = tuple(points)
    k = len(exceptional_labels)

    old_n = model.size
    new_id = f"blowup({model.model_id};{','.join(exceptional_labels)})"
    new_basis = model.basis + exceptional_labels
    new_gram = [row + (0,) * k for row in model.gram] + [
        (0,) * (old_n + i) + (-1,) + (0,) * (k - 1 - i) for i in range(k)
    ]

    curves = []
    for c in model.curves:
        tail = tuple([-given.get(c.label, 0) for given in points.values()])
        curves.append(RegisteredCurve(c.label + "'", DivisorClass(new_id, c.cls.coeffs + tail)))

    new_model = SurfaceModel(
        model_id=new_id,
        basis=new_basis,
        gram=new_gram,
        curves=curves,
        kind="blowup",
        exceptional_labels=model.exceptional_labels + exceptional_labels,
    )
    return new_model, MorphismMap("blowup", new_model, model)


def strict_transform(
    morphism: MorphismMap, d: DivisorClass, mults: list[int] | tuple[int, ...]
) -> DivisorClass:
    """Pullback of ``d`` with ``-mults`` on the exceptional classes; each
    multiplicity must be an ``int`` >= 0."""
    if not isinstance(morphism, MorphismMap) or morphism.kind != "blowup":
        raise InvalidParameter("strict_transform needs a blow-up morphism")
    if not isinstance(mults, _ROWS):
        raise InvalidParameter(
            f"multiplicities must be a tuple or list, got {type(mults).__name__}"
        )
    k = len(morphism.exceptional_labels)
    if len(mults) != k:
        raise InvalidParameter(f"need {k} multiplicities, got {len(mults)}")
    for label, m in zip(morphism.exceptional_labels, mults):
        exact_int(m, f"multiplicity at {label}", 0)
    morphism.target._check_owned(d)
    return DivisorClass(morphism.source.model_id, d.coeffs + tuple([-m for m in mults]))


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
    check_type(model, SurfaceModel, "double_cover")
    new_id = f"double_cover({model.model_id})"
    new_gram = [[2 * x for x in row] for row in model.gram]
    curves = [RegisteredCurve(c.label, DivisorClass(new_id, c.cls.coeffs)) for c in model.curves]
    new_model = SurfaceModel(
        model_id=new_id,
        basis=model.basis,
        gram=new_gram,
        curves=curves,
        kind="cover",
        exceptional_labels=model.exceptional_labels,
    )
    return new_model, MorphismMap("cover", new_model, model, branch_half)


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
    """The three morphisms the verifier works with, plus the named classes
    bound by reports and the CLI expression grammar.

    The four models are read from the maps' ends.  A tower is refused when
    built unless its maps are a blow-up, a cover and a blow-up that chain:
    the cover maps onto the base that ``base_blowup_map`` blows up, and
    ``cover_blowup_map`` blows up the cover.  It is refused too unless
    ``classes`` maps the seven names below, each to a class on its model.

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

    __slots__ = _fields = ("n", "base_blowup_map", "cover_map", "cover_blowup_map", "classes")
    _LIVES_ON = {"F": "base", "G": "base", "G_n": "base", "R": "base", "A": "base",
                 "L": "base_blowup", "D": "cover_blowup"}

    def __init__(self, n: int, base_blowup_map: MorphismMap, cover_map: MorphismMap,
                 cover_blowup_map: MorphismMap, classes: dict[str, DivisorClass]):
        maps = (base_blowup_map, cover_map, cover_blowup_map)
        for name, f, kind in zip(self._fields[1:4], maps, ("blowup", "cover", "blowup")):
            got = f.kind if isinstance(f, MorphismMap) else type(f).__name__
            if got != kind:
                raise InvalidParameter(f"a tower's {name} must be a {kind} map, got {got!r}")
        if cover_map.target != base_blowup_map.target:
            raise InvalidParameter("a tower's cover_map must map onto its base")
        if cover_blowup_map.target != cover_map.source:
            raise InvalidParameter("a tower's cover_blowup_map must map onto its cover")
        names = self._LIVES_ON
        if not isinstance(classes, Mapping) or classes.keys() != names.keys():
            raise InvalidParameter(f"a tower's classes must map the names {', '.join(names)}")
        self._set_fields(n, *maps, classes)
        for name, on in names.items():
            model = getattr(self, on)
            check_on(classes[name], model.model_id, model.size)

    def _key(self) -> tuple:  # ``classes`` is left out of ``==`` and ``hash``
        return tuple([getattr(self, name) for name in self._fields[:-1]])

    base = property(attrgetter("base_blowup_map.target"))
    base_blowup = property(attrgetter("base_blowup_map.source"))
    cover = property(attrgetter("cover_map.source"))
    cover_blowup = property(attrgetter("cover_blowup_map.source"))

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

    transverse = {"F": 1, "Gamma_n": 1}
    _, base_blowup_map = blow_up(base, {f"e_{i}": transverse for i in (1, 2, 3)})
    one_dim_cls = strict_transform(base_blowup_map, member, (2, 2, 2))  # L

    cover, cover_map = double_cover(base, ample_half)
    # A_n, the pullback of the member F + Gamma_n: the cover is etale over
    # the three chosen transverse points, so A_n has an ordinary node
    # (declared multiplicity 2) at each chosen preimage
    nodal_member = pullback(cover_map, member)
    cover = cover.with_curve("A_n", nodal_member)
    cover_map = MorphismMap("cover", cover, base, ample_half)
    nodal = {"F": 1, "Gamma_n": 1, "A_n": 2}
    _, cover_blowup_map = blow_up(cover, {f"E_{i}": nodal for i in (1, 2, 3)})
    headline_cls = strict_transform(cover_blowup_map, nodal_member, (2, 2, 2))  # D

    classes = {
        "F": f_cls,
        "G": g_cls,
        "G_n": kernel_cls,
        "R": ample_half,
        "A": member,
        "L": one_dim_cls,
        "D": headline_cls,
    }
    return Tower(n, base_blowup_map, cover_map, cover_blowup_map, classes)
