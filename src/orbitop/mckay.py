"""The desingularization pipeline for quotients with codimension-two
singular loci.

Given a group of motions of C^n preserving a splitting C + C^{n-1} with
H the pointwise stabilizer of the distinguished line, this module
classifies H to an ADE type, computes the induced action of K = G/H on
the diagram, enumerates the lifts of that action to the extended Weyl
group, decides existence of invariant class pairs, and classifies what
happens on the A-series local models after dividing by K.

The lift search carries each element of Aut x| W as its diagram
automorphism and the permutation of the roots its lattice map induces,
so products are reindexings; int rows are built only for the images of
the lifts it finds.

A lift's two fixed spaces are `int_kernel`s of int coefficient rows,
over Z and over Z[zeta_m], and the pair is found and re-checked on those
rows; Fractions and Cyclotomics are built only for the label a report
prints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple

from .ade import (
    DynkinDiagram,
    ExtendedElement,
    RootSystem,
    WeylGroup,
    build_root_system,
    graph_automorphisms,
    weyl_group,
)
from .errors import CapExceededError, PreconditionError, VerificationError
from .exact import (
    Cyclotomic,
    cyclotomic_polynomial,
    from_integer_coefficients,
    int_apply,
    int_kernel,
    int_product,
    scale_coefficients,
    zero_pairings,
)
from .group import (
    FiniteMatrixGroup,
    Motion,
    QuotientGroup,
    close,
    conjugacy_classes,
    generated,
    normal_and_quotient,
    order_modulo,
    splitting_multiplier,
    stabilizer,
    su_classify,
)
from .invariants.nodes import generic_combination


# Candidate assignments the lift search may walk: the product, over the
# quotient generators, of the Weyl candidates x with x^ord = 1.  The D4
# stress scenarios walk 44 and 80; K = Z2 x Z2 over E6 would walk ~8*10^5.
LIFT_SEARCH_CAP = 100_000


# ---------------------------------------------------------------------------
# ADE classification of SU(2) subgroups


class KleinianClassification(NamedTuple):
    subgroup: FiniteMatrixGroup
    diagram: DynkinDiagram
    classes: tuple[tuple[int, ...], ...]  # nonidentity classes
    vertex_maps: tuple[tuple[int, ...], ...]  # class position -> vertex
    ambiguous: bool


def classify_kleinian(h: FiniteMatrixGroup) -> KleinianClassification:
    """Assign the ADE diagram of a finite subgroup of SU(2) from its order
    and its element orders, read once: they tell a cyclic group (A) and
    a binary dihedral one (D), and sign the classes for the vertex maps."""
    if h.dim_real != 4:
        raise PreconditionError("Kleinian classification needs motions of C^2")
    for m in h.elements:
        if not su_classify(m).in_su():
            raise PreconditionError("subgroup is not inside SU(2)")
    if h.order == 1:
        raise PreconditionError("trivial subgroup gives no singularity")

    order = h.order
    orders = [h.element_order(i) for i in range(order)]
    classes = [c for c in conjugacy_classes(h) if c != (h.identity_index,)]
    rank = len(classes)

    if order in orders:
        diagram = DynkinDiagram.make("A", order - 1)
        # Chain ordering: vertex j corresponds to the class of g^(j+1).
        power = cyclic_gen = orders.index(order)
        vmap = [0] * rank
        for j in range(rank):
            cls_idx = next(i for i, c in enumerate(classes) if power in c)
            vmap[cls_idx] = j
            power = h.mul(power, cyclic_gen)
        return KleinianClassification(
            subgroup=h,
            diagram=diagram,
            classes=tuple(classes),
            vertex_maps=(tuple(vmap),),
            ambiguous=False,
        )

    if order % 4 == 0 and order // 2 in orders:
        diagram = DynkinDiagram.make("D", order // 4 + 2)
    elif order in (24, 48, 120):
        diagram = DynkinDiagram.make("E", {24: 6, 48: 7, 120: 8}[order])
    else:
        raise PreconditionError(f"order {order} is not an SU(2) subgroup order")
    if rank != diagram.rank:
        raise PreconditionError(
            f"class count {rank} does not match rank of {diagram.name}"
        )
    vmaps = _compatible_vertex_maps(
        [(len(c), orders[c[0]]) for c in classes], diagram
    )
    if not vmaps:
        raise PreconditionError(
            f"no class-vertex matching found for {diagram.name}"
        )
    return KleinianClassification(
        subgroup=h,
        diagram=diagram,
        classes=tuple(classes),
        vertex_maps=vmaps,
        ambiguous=len(vmaps) > 1,
    )


def _compatible_vertex_maps(sigs, diagram):
    """All bijections classes -> vertices sending classes of equal
    signature (size, element order) to vertices of equal degree.  There
    is no algorithmic matching beyond these invariants, so every
    compatible bijection is reported."""
    rank = len(sigs)
    degrees = [diagram.degree(v) for v in range(rank)]
    maps = []
    for perm in itertools.permutations(range(rank)):
        if all(
            degrees[perm[a]] == degrees[perm[b]]
            for a in range(rank)
            for b in range(a + 1, rank)
            if sigs[a] == sigs[b]
        ):
            maps.append(perm)
    return tuple(maps)


# ---------------------------------------------------------------------------
# The diagram action of K and its lifts


class PsiHom(NamedTuple):
    """Homomorphism from K to the diagram automorphisms."""

    source: QuotientGroup
    diagram: DynkinDiagram
    images: tuple[tuple[int, ...], ...]  # coset index -> vertex permutation

    def is_trivial(self) -> bool:
        ident = tuple(range(self.diagram.rank))
        return all(img == ident for img in self.images)


def compute_psi(
    group: FiniteMatrixGroup,
    h_indices,
    classification: KleinianClassification,
) -> PsiHom:
    """Transport the conjugation action of K on nonidentity classes of H
    through the class-vertex map; every coset must land in Aut(diagram).
    The class permutation of each coset is computed once; each candidate
    matching only relabels it, and the first that gives a homomorphism
    is used.

    classification.subgroup must be the restriction of the h_indices
    elements to the complement of the distinguished line.
    """
    quotient = normal_and_quotient(group, h_indices)
    classes = classification.classes
    local = classification.subgroup.elements
    parent_of = {_complement_block(group.elements[i]): i for i in h_indices}
    if parent_of.keys() != set(local):
        raise PreconditionError("subgroup elements do not match restriction")
    class_of = {parent_of[local[x]]: ci for ci, cls in enumerate(classes) for x in cls}
    reps = [parent_of[local[cls[0]]] for cls in classes]
    class_perms = [
        [class_of[group.conjugate(quotient.coset_rep(c), x)] for x in reps]
        for c in range(quotient.order)
    ]

    auts = set(graph_automorphisms(classification.diagram))
    for vmap in classification.vertex_maps:
        images = []
        for perm in class_perms:
            vertex_perm = [0] * classification.diagram.rank
            for ci, cj in enumerate(perm):
                vertex_perm[vmap[ci]] = vmap[cj]
            images.append(tuple(vertex_perm))
        if auts.issuperset(images) and _is_perm_hom(quotient, images):
            return PsiHom(
                source=quotient, diagram=classification.diagram, images=tuple(images)
            )
    raise PreconditionError(
        "conjugation action incompatible with the diagram symmetries "
        f"under every candidate matching ({len(classification.vertex_maps)} tried)"
    )


def _complement_block(motion: Motion) -> Motion:
    """The motion restricted to the complement of the first complex axis."""
    return Motion(tuple(row[2:] for row in motion.rows[2:]), motion.den)


def _is_perm_hom(quotient: QuotientGroup, images) -> bool:
    def compose(a, b):
        return tuple(a[b[i]] for i in range(len(a)))

    for x in range(quotient.order):
        for y in range(quotient.order):
            if images[quotient.mul(x, y)] != compose(images[x], images[y]):
                return False
    return True


class ChiLift(NamedTuple):
    """Homomorphism from K to the extended Weyl group lifting psi."""

    psi: PsiHom
    images: tuple[ExtendedElement, ...]  # coset index -> element

    def is_canonical(self) -> bool:
        """Whether every Weyl part is the identity (built once per rank)."""
        ident = ExtendedElement.identity(self.psi.diagram.rank).weyl
        return all(e.weyl == ident for e in self.images)

    def dual_rows(self, coset: int) -> tuple[tuple[int, ...], ...]:
        """The inverse transpose of the lattice matrix of images[coset], as
        int rows.  A lift is a homomorphism, so that inverse is the image
        of the inverse coset; one int product re-checks it."""
        quotient = self.psi.source
        inverse = quotient.table[coset].index(quotient.identity_coset)
        rows = self.images[inverse].lattice_rows
        product = int_product(rows, self.images[coset].lattice_rows)
        if product != ExtendedElement.identity(len(rows)).weyl:
            raise VerificationError(
                f"the image of coset {inverse} does not invert that of {coset}"
            )
        return tuple(zip(*rows))


def enumerate_chi_lifts(psi: PsiHom, weyl: WeylGroup) -> list[ChiLift]:
    """All homomorphisms into Aut x| W projecting to psi; the canonical
    lift (identity Weyl parts) comes first, the rest in image order.

    An element (a, w) is carried as (a, the permutation of weyl.roots
    that P_a M_w induces), so a product is a reindexing.  Each quotient
    generator g keeps only the candidates x with x^ord(g) = 1, and only
    the product of those lists is checked for the quotient's relations.
    Int rows are built only for the images of the lifts found."""
    if not weyl.enumerated:
        raise CapExceededError(
            "lift enumeration needs the Weyl group enumerated under its cap"
        )
    quotient = psi.source
    gens = _quotient_generators(quotient)
    tree = _quotient_tree(quotient, gens)
    unit = ExtendedElement.identity(psi.diagram.rank)
    simple = tuple(range(psi.diagram.rank))
    ident = (unit.aut, tuple(range(len(weyl.roots))))

    def compose(x, y):
        # (a, p)(b, q): the automorphisms compose as in ExtendedElement,
        # the root permutations as maps, q first.
        (a, p), (b, q) = x, y
        return tuple(a[t] for t in b), tuple(map(p.__getitem__, q))

    def power_is_identity(perm, k):
        # The simple roots, the first entries of weyl.roots, span the
        # lattice, so perm^k is the identity iff it fixes them.
        head = simple
        for _ in range(k):
            head = tuple(perm[t] for t in head)
        return head == simple

    candidates = []
    for gen in gens:
        k = order_modulo(quotient.table, gen, (quotient.identity_coset,))
        a = psi.images[gen]
        p_a = weyl.aut_perm(a)
        perms = (tuple(map(p_a.__getitem__, w)) for w in weyl.perms)
        candidates.append([(a, p) for p in perms if power_is_identity(p, k)])
    size = prod(len(c) for c in candidates)
    if size > LIFT_SEARCH_CAP:
        raise CapExceededError(
            f"lift search needs {size} candidate assignments, "
            f"over cap {LIFT_SEARCH_CAP}"
        )
    # A map defined along the spanning tree is a homomorphism iff
    # f(c g) = f(c) f(g) for every coset c and generator g.
    edges = [
        (coset, gi, quotient.mul(coset, gen))
        for coset in range(quotient.order)
        for gi, gen in enumerate(gens)
    ]
    found = set()
    for assignment in itertools.product(*candidates):
        images = [None] * quotient.order
        images[quotient.identity_coset] = ident
        for coset, parent, gi in tree:
            images[coset] = compose(images[parent], assignment[gi])
        if all(
            images[target] == compose(images[coset], assignment[gi])
            for coset, gi, target in edges
        ) and all(
            images[coset][0] == psi.images[coset]
            for coset in range(quotient.order)
        ):
            found.add(tuple(images))
    elements = {x: weyl.extended_element(*x) for x in set().union(*found)}
    lifts = sorted(
        (ChiLift(psi=psi, images=tuple(map(elements.__getitem__, images)))
         for images in found),
        key=lambda lift: (
            any(e.weyl != unit.weyl for e in lift.images), lift.images
        ),
    )
    if not lifts or not lifts[0].is_canonical():
        raise PreconditionError("canonical lift missing from enumeration")
    return lifts


def _quotient_generators(quotient: QuotientGroup) -> tuple[int, ...]:
    """The first coset of order |K| alone when K is cyclic and
    nontrivial, else cosets taken greedily in index order, each one
    outside the subgroup the earlier ones generate.  Each extra
    generator multiplies the lift search by its candidate count."""
    unit = (quotient.identity_coset,)
    for coset in range(quotient.order):
        if (
            coset not in unit
            and order_modulo(quotient.table, coset, unit) == quotient.order
        ):
            return (coset,)
    gens: tuple[int, ...] = ()
    reached = unit
    for coset in range(quotient.order):
        if coset not in reached:
            gens += (coset,)
            reached = generated(quotient.table, gens)
    return gens


def _quotient_tree(quotient: QuotientGroup, gens) -> list[tuple[int, int, int]]:
    """Breadth-first spanning tree of the Cayley graph from the identity:
    (coset, parent, generator index) with coset = parent * gens[index],
    parents before children."""
    tree = []
    reached = {quotient.identity_coset}
    frontier = [quotient.identity_coset]
    while frontier:
        nxt = []
        for coset in frontier:
            for gi, gen in enumerate(gens):
                p = quotient.mul(coset, gen)
                if p not in reached:
                    reached.add(p)
                    tree.append((p, coset, gi))
                    nxt.append(p)
        frontier = nxt
    if len(reached) != quotient.order:
        raise PreconditionError("generators do not generate the quotient")
    return tree


# ---------------------------------------------------------------------------
# Invariant class pairs


class ALESpaceLabel(NamedTuple):
    """The pair of classes labelling an asymptotically Euclidean model."""

    diagram: DynkinDiagram
    alpha: tuple[Fraction, ...]
    beta: tuple[Cyclotomic, ...]


class InvariantPairProblem(NamedTuple):
    """The two fixed spaces of a lift, each as its reduced echelon basis
    in the integer_coefficients form (d, parts): real_fixed_rows over Q,
    complex_fixed_rows over Q(zeta_field_order)."""

    root_system: RootSystem
    chi: ChiLift
    phi: tuple[Cyclotomic, ...]  # coset index -> unit scalar
    field_order: int
    real_fixed_rows: tuple
    complex_fixed_rows: tuple

    @property
    def real_fixed_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        d, parts = self.real_fixed_rows
        return tuple(tuple(Fraction(x, d) for x in row) for (row,) in parts)

    @property
    def complex_fixed_basis(self) -> tuple[tuple[Cyclotomic, ...], ...]:
        d, parts = self.complex_fixed_rows
        return tuple(
            from_integer_coefficients(self.field_order, d, rows) for rows in parts
        )


class InvariantPairDecision(NamedTuple):
    exists: bool
    label: ALESpaceLabel | None
    blocking_root: tuple[int, ...] | None


def build_invariant_pair_problem(
    rs: RootSystem, chi: ChiLift, phi, field_order: int | None = None
) -> InvariantPairProblem:
    """Fixed spaces of the two twisted dual actions of K, each the kernel
    of the blocks of the generators of K stacked.

    chi and phi are homomorphisms, so a vector fixed by every generator
    is fixed by every coset.  A kernel basis has a 1 at each free column
    and 0 at the others: it is the reduced echelon basis of the space
    read from the last coordinate, so it depends on the space alone and
    equals the basis an intersection over all cosets gives.  Every value
    of phi is a root of unity, so the blocks are int coefficient rows
    over Z[zeta_m], m = field_order (see `_phi_field_order`, computed
    here when not given)."""
    quotient = chi.psi.source
    if field_order is None:
        field_order = _phi_field_order(phi)
    # A trivial K has no generators: its identity coset fixes everything.
    gens = _quotient_generators(quotient) or (quotient.identity_coset,)
    real_rows, complex_rows = [], []
    for coset in gens:
        unit = _unit_coefficients(phi[coset], field_order)
        for i, row in enumerate(chi.dual_rows(coset)):
            real_rows.append(([d - (i == j) for j, d in enumerate(row)],))
            planes = [[u * d for d in row] for u in unit]
            planes[0][i] -= 1
            complex_rows.append(planes)
    return InvariantPairProblem(
        root_system=rs,
        chi=chi,
        phi=tuple(phi),
        field_order=field_order,
        real_fixed_rows=int_kernel(real_rows),
        complex_fixed_rows=int_kernel(complex_rows, field_order),
    )


def _phi_field_order(phi) -> int:
    """The order m of the field Q(zeta_m) the twisted fixed space is
    computed in: the lcm of the multiplicative orders of the values of
    phi and of the fields they are written in."""
    orders = [s.root_of_unity_order() for s in phi]
    if None in orders:
        raise PreconditionError("splitting multiplier is not a root of unity")
    return lcm(*orders, *(s.order for s in phi))


def _unit_coefficients(scalar: Cyclotomic, order: int) -> tuple[int, ...]:
    """The ints of a value of phi in Z[zeta_order]."""
    coeffs = scalar.embed(order).coeffs
    if any(c.denominator != 1 for c in coeffs):
        raise PreconditionError(f"splitting multiplier {scalar!r} is not integral")
    return tuple(c.numerator for c in coeffs)


def invariant_pair_decide(
    problem: InvariantPairProblem, seed: int = 0
) -> InvariantPairDecision:
    """Existence of a fixed pair hitting the genericity condition: for
    every root, some member of the pair must pair nontrivially with it.
    Impossible exactly when some root annihilates both fixed spaces.
    The pair is found and re-checked on int coefficient rows; Fractions
    and Cyclotomics are built only for the label."""
    rs = problem.root_system
    m = problem.field_order
    a_parts = problem.real_fixed_rows[1]
    b_parts = problem.complex_fixed_rows[1]
    rows = [row for parts in (a_parts, b_parts) for vec in parts for row in vec]
    for delta, dead in zip(rs.roots, zero_pairings(rs.roots, rows)):
        if dead:
            return InvariantPairDecision(
                exists=False, label=None, blocking_root=delta
            )
    zero = (0,) * rs.rank
    if a_parts:
        alpha = generic_combination(problem.real_fixed_rows, rs.roots, seed=seed)
    else:
        alpha = 1, (zero,)
    if b_parts:
        beta = generic_combination(problem.complex_fixed_rows, rs.roots, seed=seed)
    else:
        beta = 1, (zero,) * (len(cyclotomic_polynomial(m)) - 1)
    _verify_pair(problem, alpha, beta)
    (a_den, (a_row,)), (b_den, b_rows) = alpha, beta
    label = ALESpaceLabel(
        diagram=rs.diagram,
        alpha=tuple(Fraction(x, a_den) for x in a_row),
        beta=from_integer_coefficients(m, b_den, b_rows),
    )
    return InvariantPairDecision(exists=True, label=label, blocking_root=None)


def _verify_pair(problem: InvariantPairProblem, alpha, beta) -> None:
    """Re-check, on integer coefficient rows, that alpha is fixed by every
    dual, beta by every phi-twisted dual, and that no root pairs to zero
    with both.  alpha is (d, (row,)) over Q and beta (d, rows) over
    Q(zeta_field_order): one vector each of the integer_coefficients form."""
    m = problem.field_order
    a_rows, b_rows = (tuple(map(tuple, rows)) for _, rows in (alpha, beta))
    if len(a_rows) != 1 or len(b_rows) != len(cyclotomic_polynomial(m)) - 1:
        raise PreconditionError("pair is not written over Q and Q(zeta_m)")
    quotient = problem.chi.psi.source
    for coset in range(quotient.order):
        dual = problem.chi.dual_rows(coset)
        if int_apply(dual, a_rows[0]) != a_rows[0]:
            raise VerificationError("alpha is not invariant")
        # The dual acts on each plane of beta; phi, a root of unity
        # zeta_m^s, then mixes the planes.
        image = [int_apply(dual, row) for row in b_rows]
        unit = _unit_coefficients(problem.phi[coset], m)
        if scale_coefficients(unit, image, m) != b_rows:
            raise VerificationError("beta is not invariant")
    # A root pairs to zero with a vector when it does with every row.
    if any(zero_pairings(problem.root_system.roots, (*a_rows, *b_rows))):
        raise VerificationError("pair misses the genericity condition")


# ---------------------------------------------------------------------------
# Second-stage classification on A-series local models


class ASeriesModel(
    NamedTuple(
        "ASeriesModel",
        [
            ("n", int),
            ("side", str),
            ("line_multiplier", Cyclotomic),
            ("p", Cyclotomic),
            ("q", Cyclotomic),
            ("k_order", int),
        ],
    )
):
    """The local model: transverse coordinate times the hypersurface
    x y = z^n + deformation, carrying a cyclic action.

    The normal action is the generator's effect upstairs: z1 scales by
    line_multiplier, the two transverse coordinates scale by (p, q).
    side is "deformation" (generic nonzero constant term) or
    "resolution" (constant term zero, blown up).
    """

    def __new__(cls, n, side, line_multiplier, p, q, k_order):
        if n < 2:
            raise PreconditionError("A-series model needs n >= 2")
        if side not in ("deformation", "resolution"):
            raise PreconditionError("side must be deformation or resolution")
        if k_order < 1:
            raise PreconditionError("cyclic action order must be positive")
        return super().__new__(cls, n, side, line_multiplier, p, q, k_order)


class FixedLocusPiece(NamedTuple):
    description: str
    dimension: int  # complex dimension
    count: int | None  # None when not a finite set of pieces of this kind


class SecondStageReport(NamedTuple):
    outcome: str  # "free" | "isolated fixed points" | "codimension-two" | "degenerate"
    pieces: tuple[FixedLocusPiece, ...]
    per_element: tuple[tuple[int, tuple[FixedLocusPiece, ...]], ...]


def second_stage_classify(model: ASeriesModel) -> SecondStageReport:
    """Fixed-point analysis of the cyclic action on the local model."""
    if model.k_order == 1:
        piece = FixedLocusPiece(
            description="entire space fixed (trivial action)",
            dimension=3,
            count=1,
        )
        return SecondStageReport(
            outcome="degenerate", pieces=(piece,), per_element=()
        )
    per_element = []
    all_pieces: list[FixedLocusPiece] = []
    for t in range(1, model.k_order):
        sigma = model.line_multiplier**t
        p, q = model.p**t, model.q**t
        if model.side == "deformation":
            pieces = _deformation_fixed_pieces(model.n, sigma, p, q)
        else:
            pieces = _resolution_fixed_pieces(model.n, sigma, p, q)
        per_element.append((t, tuple(pieces)))
        all_pieces.extend(pieces)
    if not all_pieces:
        outcome = "free"
    else:
        top = max(piece.dimension for piece in all_pieces)
        if top == 0:
            outcome = "isolated fixed points"
        elif top == 1:
            outcome = "codimension-two"
        else:
            outcome = "degenerate"
    return SecondStageReport(
        outcome=outcome,
        pieces=tuple(all_pieces),
        per_element=tuple(per_element),
    )


def _deformation_fixed_pieces(n, sigma, p, q):
    """Fixed points on {x y - z^n = c}, c generic nonzero, under
    (x, y, z) -> (p^n x, q^n y, (pq) z) and the transverse scaling."""
    a, b, c = p**n, q**n, p * q
    if a * b != 1 or c**n != 1:
        raise PreconditionError(
            "action does not preserve the deformed hypersurface"
        )
    line_dim = 1 if sigma == 1 else 0
    if a == 1 and b == 1 and c == 1:
        if sigma == 1:
            return [
                FixedLocusPiece("entire space fixed", 3, 1)
            ]
        return [
            FixedLocusPiece("whole deformed surface fixed", 2, 1)
        ]
    forced_x = a != 1
    forced_y = b != 1
    forced_z = c != 1
    if forced_x and forced_y and forced_z:
        return []  # x=y=z=0 misses the hypersurface
    if forced_x and forced_y:
        # z free: z^n = -const has n solutions
        return [
            FixedLocusPiece(
                "transverse root points" + (" times a line" if line_dim else ""),
                line_dim,
                n,
            )
        ]
    if forced_z and (forced_x or forced_y):
        return []  # the surviving coordinate axis misses the hypersurface
    if forced_z:
        return [
            FixedLocusPiece(
                "conic x y = const" + (" times a line" if line_dim else ""),
                1 + line_dim,
                1,
            )
        ]
    # exactly one of x, y forced: incompatible with a*b = 1
    raise PreconditionError("inconsistent multipliers on the hypersurface")


def _resolution_fixed_pieces(n, sigma, p, q):
    """Fixed locus on the minimal resolution of x y = z^n under the
    transverse action (z2, z3) -> (p z2, q z3), crossed with the line.

    Chart j of the resolution has coordinates scaling by p^(n-j) q^(-j)
    and p^(-(n-j-1)) q^(j+1); the i-th exceptional curve is pointwise
    fixed iff p^(n-i) = q^i, and the axis strict transforms are fixed
    pointwise iff the corresponding scaling lies in the cyclic group
    being resolved.
    """
    line_dim = 1 if sigma == 1 else 0
    if p == 1 and q == 1:
        return [
            FixedLocusPiece(
                "entire resolution fixed" + (" times a line" if line_dim else ""),
                2 + line_dim,
                1,
            )
        ]
    pieces = []
    fixed_curves = [i for i in range(1, n) if p ** (n - i) == q**i]
    if fixed_curves:
        pieces.append(
            FixedLocusPiece(
                "exceptional curves fixed pointwise"
                + (" times a line" if line_dim else ""),
                1 + line_dim,
                len(fixed_curves),
            )
        )
    # Curve 0 / curve n stand for the axis strict transforms bounding
    # the chain; chart j's origin joins curves j and j+1 and is always
    # fixed, isolated iff neither neighbour is pointwise fixed.
    fixed_boundary = set(fixed_curves)
    if p**n == 1:
        fixed_boundary.add(0)
        pieces.append(
            FixedLocusPiece(
                "first-axis strict transform"
                + (" times a line" if line_dim else ""),
                1 + line_dim,
                1,
            )
        )
    if q**n == 1:
        fixed_boundary.add(n)
        pieces.append(
            FixedLocusPiece(
                "second-axis strict transform"
                + (" times a line" if line_dim else ""),
                1 + line_dim,
                1,
            )
        )
    isolated = sum(
        1
        for j in range(n)
        if j not in fixed_boundary and j + 1 not in fixed_boundary
    )
    if isolated:
        pieces.append(
            FixedLocusPiece(
                "chart origins" + (" times a line" if line_dim else ""),
                line_dim,
                isolated,
            )
        )
    return pieces


class ResidualSingularity(NamedTuple):
    piece: FixedLocusPiece
    group_order: int
    elements: tuple[int, ...]  # exponents of the cyclic generator


def iterate_residual(
    model: ASeriesModel, report: SecondStageReport, parent_order: int
) -> list[ResidualSingularity]:
    """Stabilizers along the fixed locus, as the next-stage quotient
    groups; their orders strictly decrease from the parent group."""
    if report.outcome == "free" or not report.per_element:
        return []
    by_piece: dict[FixedLocusPiece, set[int]] = {}
    for t, pieces in report.per_element:
        for piece in pieces:
            by_piece.setdefault(piece, set()).add(t)
    out = []
    for piece, exps in sorted(
        by_piece.items(), key=lambda kv: (kv[0].description, kv[0].dimension)
    ):
        # The subgroup of Z/k generated by the exponents.
        elements = range(0, model.k_order, gcd(model.k_order, *exps))
        order = len(elements)
        if order <= 1:
            continue
        if order >= parent_order:
            raise PreconditionError(
                "residual group does not strictly decrease"
            )
        out.append(
            ResidualSingularity(
                piece=piece,
                group_order=order,
                elements=tuple(elements),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Pipeline assembly


class PipelineResult(
    NamedTuple(
        "PipelineResult",
        [
            ("group", FiniteMatrixGroup),
            ("h_indices", tuple[int, ...]),
            ("classification", KleinianClassification),
            ("quotient", QuotientGroup),
            ("psi", PsiHom),
            ("weyl", WeylGroup),
            ("lifts", tuple[ChiLift, ...]),
            ("phi", tuple[Cyclotomic, ...]),
            ("root_system", RootSystem),
            ("seed", int),
        ],
    )
):
    @cached_property
    def decisions(self) -> tuple[InvariantPairDecision, ...]:
        """The invariant-pair decision of each lift, in lift order; decided
        on first access."""
        order = _phi_field_order(self.phi)
        return tuple(
            invariant_pair_decide(
                build_invariant_pair_problem(
                    self.root_system, lift, self.phi, field_order=order
                ),
                seed=self.seed,
            )
            for lift in self.lifts
        )


def analyze_splitting(
    group: FiniteMatrixGroup, axis: int = 0, seed: int = 0
) -> PipelineResult:
    """Run the full first-stage pipeline for a group preserving the
    splitting (distinguished complex axis) + (complement)."""
    dim = group.dim_real
    if dim < 6:
        raise PreconditionError("pipeline needs motions of C^3 or larger")
    if not 0 <= axis < dim // 2:
        raise PreconditionError(f"axis {axis} is not in 0..{dim // 2 - 1}")
    if axis != 0:
        group = _move_axis_first(group, axis)
        axis = 0
    plane = [
        tuple(int(i == 2 * axis) for i in range(dim)),
        tuple(int(i == 2 * axis + 1) for i in range(dim)),
    ]
    h_indices = stabilizer(group, subspace=plane)
    if len(h_indices) == group.order:
        raise PreconditionError("whole group fixes the distinguished line")
    if len(h_indices) == 1:
        raise PreconditionError(
            "distinguished line has trivial pointwise stabilizer"
        )
    sub_elements = [_complement_block(group.elements[i]) for i in h_indices]
    subgroup = close(sub_elements)
    if subgroup.order != len(h_indices):
        raise PreconditionError("restricted subgroup does not close to H")
    classification = classify_kleinian(subgroup)
    psi = compute_psi(group, set(h_indices), classification)
    quotient = psi.source
    rs = build_root_system(classification.diagram)
    weyl = weyl_group(rs)
    lifts = enumerate_chi_lifts(psi, weyl)
    phi = tuple(
        splitting_multiplier(group.elements[quotient.coset_rep(c)], axis)
        for c in range(quotient.order)
    )
    return PipelineResult(
        group=group,
        h_indices=tuple(h_indices),
        classification=classification,
        quotient=quotient,
        psi=psi,
        weyl=weyl,
        lifts=tuple(lifts),
        phi=phi,
        root_system=rs,
        seed=seed,
    )


def _move_axis_first(group: FiniteMatrixGroup, axis: int) -> FiniteMatrixGroup:
    """Conjugate the group by the coordinate swap bringing the chosen
    complex axis to position 0; the multiplication table is unchanged.
    Conjugating by a permutation reindexes rows and columns alike."""
    perm = list(range(group.dim_real))
    perm[0], perm[2 * axis] = perm[2 * axis], perm[0]
    perm[1], perm[2 * axis + 1] = perm[2 * axis + 1], perm[1]
    elements = tuple(
        Motion(tuple(tuple(m.rows[r][c] for c in perm) for r in perm), m.den)
        for m in group.elements
    )
    return FiniteMatrixGroup(
        elements=elements,
        table=group.table,
        identity_index=group.identity_index,
        inverse=group.inverse,
    )
