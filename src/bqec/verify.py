"""Embedded verification corpora: the published worked examples and tables.

Every item recomputes a published quantity with exact arithmetic and
reports pass, fail, or paper-discrepancy.  paper-discrepancy marks the
spots where the published text disagrees with its own formulas; the item
carries both the printed and the recomputed values, so the corpus
documents those slips mechanically.  Published rank claims are *not*
re-proved; items touching them say "rank claim not re-proved".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import canonical_height, regulator, sieve
from .arith import is_rational_square
from .curves import Point
from .errors import NotRealizable, SingularParameter
from .family import (
    HIGH_RANK_SIEVE_ROWS,
    RANK3_PRODUCT_TORSION_R,
    SHARED_HIGH_RANK_CURVE,
    SIEVE_THRESHOLDS,
    auxiliary_curve,
    dual_curve,
    family_curve,
    family_torsion_points,
    geometric_progression_points,
    parameter_from_auxiliary_point,
    product_torsion_parameter,
    singular_k_values,
    subfamily,
    subfamily1_cleared,
    subfamily1_singular_locus_value,
    subfamily_parameter,
)
from .quad import (
    Quadrilateral,
    n_ratio,
    point_to_quad,
    point_to_semiperimeter,
    quad_to_point,
)
from .torsion import point_order, torsion_subgroup, two_torsion_points

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


@dataclass(frozen=True)
class VerificationReport:
    item: str
    status: str
    detail: str


def _check(reports: list[VerificationReport], item: str, ok: bool, detail: str) -> None:
    reports.append(VerificationReport(item, PASS if ok else FAIL, detail))


def _discrepancy(reports: list[VerificationReport], item: str, ok: bool, detail: str) -> None:
    # ok means the discrepancy was confirmed (printed value wrong, corrected value checks out)
    reports.append(VerificationReport(item, DISCREPANCY if ok else FAIL, detail))


def verify_examples() -> list[VerificationReport]:
    """The worked numeric examples, recomputed end to end."""
    reports: list[VerificationReport] = []
    F = Fraction

    quad = Quadrilateral(21, 28, 12, 5)
    _check(reports, "example/search-quad/N", n_ratio(quad) == F(99, 40), "N({21,28,12,5}) = 99/40")

    a, u, v = quad_to_point(quad)
    _check(
        reports,
        "example/a=21:5/map-to-curve",
        (a, u, abs(v)) == (F(21, 5), 1764, F(366912, 5)),
        f"normalized a = {a}, u = {u}, v = +-{abs(v)}",
    )
    curve = family_curve(F(21, 5))
    _check(
        reports,
        "example/a=21:5/coefficients",
        (curve.A, curve.B) == (F(-22664, 625), F(3111696, 625)),
        "A = -22664/625, B = 3111696/625",
    )

    P1 = Point(1764, F(366912, 5))
    T8 = Point(F(84, 5), F(34944, 125))
    summed = curve.add(P1, T8)
    _check(
        reports,
        "example/a=21:5/torsion-addition",
        summed == Point(F(756, 125), F(532224, 3125)),
        f"(1764, 366912/5) + (84/5, 34944/125) = {summed}",
    )
    s = point_to_semiperimeter(a, summed.x, summed.y)
    recovered = point_to_quad(a, summed.x, summed.y)
    _check(
        reports,
        "example/a=21:5/recovered-quad",
        s == F(69, 13) and recovered.sides == (273, 280, 72, 65),
        f"s = {s}, quadrilateral = {{{', '.join(str(x) for x in recovered.sides)}}}",
    )

    printed_T4 = Point(1764, F(451584, 625))
    corrected_T4 = Point(F(1764, 25), F(451584, 625))
    ok = (
        not curve.contains(printed_T4)
        and curve.contains(corrected_T4)
        and point_order(curve, corrected_T4) == 4
    )
    _discrepancy(
        reports,
        "discrepancy/a=21:5/order-4-point",
        ok,
        "printed (1764, 451584/625) fails the curve equation; "
        "corrected (1764/25, 451584/625) has order 4",
    )

    branch = curve.add(P1, corrected_T4)
    s2 = point_to_semiperimeter(a, branch.x, branch.y)
    try:
        point_to_quad(a, branch.x, branch.y)
        side_name, side_value = None, None
    except NotRealizable as exc:
        side_name, side_value = exc.side_name, exc.value
    _check(
        reports,
        "example/a=21:5/unrealizable-branch",
        branch == Point(F(9604, 225), F(7990528, 16875))
        and s2 == F(11, 3)
        and (side_name, side_value) == ("c", F(-8, 15)),
        f"second addition = {branch}, s = {s2}, rejected side {side_name} = {side_value}",
    )
    _discrepancy(
        reports,
        "discrepancy/a=21:5/unrealizable-s",
        s2 != F(367, 135)
        and (branch.x * F(26, 5) ** 2 + branch.y / 9) / (2 * branch.x * F(26, 5))
        == F(367, 135),
        "printed s = 367/135 (so c = -40/27) is inconsistent with the printed point "
        "and the semiperimeter map, which give s = 11/3, c = -8/15; the printed s "
        "matches the map applied to v/9 (a denominator slip)",
    )

    e10 = family_curve(10)
    G = Point(-32, -864)
    G2 = e10.multiply(2, G)
    quad10 = point_to_quad(F(10), F(8464), F(1010160))
    _check(
        reports,
        "example/a=10/chain",
        (e10.A, e10.B) == (5761, 160000)
        and e10.contains(G)
        and point_order(e10, G) is None
        and G2 == Point(8464, -1010160)
        and quad10.sides == (2530, 2511, 234, 253)
        and n_ratio(quad10) == F(21437584, 3753945),
        "curve {5761, 160000}; generator (-32,-864) of infinite order; "
        f"2G = {G2}; quadrilateral {{{', '.join(str(x) for x in quad10.sides)}}} "
        f"with N = {n_ratio(quad10)}",
    )

    aux = auxiliary_curve()
    a1, b1 = parameter_from_auxiliary_point(-24, 405)
    a2, b2 = parameter_from_auxiliary_point(12, 675)
    _check(
        reports,
        "example/auxiliary/points",
        aux.contains(Point(-24, 405))
        and aux.contains(Point(12, 675))
        and point_order(aux, Point(12, 675)) == 3
        and (a1, b1) == (F(-60, 41), F(11431, 1681))
        and (a2, b2) == (F(-4), F(25)),
        f"(-24,405) -> a = {a1}, b = +-{b1}; (12,675) has order 3 and maps to a = {a2}",
    )
    _discrepancy(
        reports,
        "discrepancy/auxiliary/generator",
        not aux.contains(Point(-38, 128)) and aux.contains(Point(-38, 125)),
        "printed generator (-38, 128) fails the curve equation; "
        "(-38)^3 + 7668*(-38) + 361881 = 15625 = 125^2 forces (-38, +-125)",
    )

    # companion-curve map: printed with B^2 in the numerator, which sends
    # points off the target curve; the standard B lands on it
    e2 = family_curve(2)
    P = Point(16, 16)
    B = e2.B
    target = dual_curve(2)
    printed_image = Point(P.y ** 2 / P.x ** 2, P.y * (B * B - P.x ** 2) / P.x ** 2)
    image = Point(P.y ** 2 / P.x ** 2, P.y * (B - P.x ** 2) / P.x ** 2)
    _discrepancy(
        reports,
        "discrepancy/companion-map",
        not target.contains(printed_image) and target.contains(image),
        "the degree-2 map printed with B^2 sends (16,16) off the companion curve; "
        "with B the image satisfies it",
    )

    pair_curve = family_curve(F(101, 341))
    _discrepancy(
        reports,
        "discrepancy/rank-2-pair/coefficient",
        pair_curve.A == F(-6171699848, 13521270961)
        and pair_curve.A != F(-6170699848, 13521270961),
        "printed curve coefficient -6170699848/13521270961 should be "
        "-6171699848/13521270961 (the value at a = 101/341, where the printed "
        "points actually lie)",
    )
    Pa = Point(4, F(879360, 116281))
    Pb = Point(F(31684, 116281), F(1907106240, 13521270961))
    reg = regulator(pair_curve, [Pa, Pb], 8)
    _check(
        reports,
        "example/rank-2-pair/regulator",
        pair_curve.contains(Pa)
        and pair_curve.contains(Pb)
        and abs(reg - 29.1615800873524) < 5e-2,
        f"regulator of the pair = {reg!r} (published 29.1615800873524)",
    )

    e0, p0 = subfamily1_cleared(0)
    height = canonical_height(e0, p0, 8)
    _check(
        reports,
        "example/subfamily1/height",
        abs(height.value - 2.34275900093414) < 1e-3,
        f"height of (625, -100000) = {height.value!r} +- {height.error_bound!r} "
        "(published 2.34275900093414)",
    )
    return reports


_TABLE3_K_POOL = tuple(
    Fraction(n, d)
    for n, d in (
        (4, 1), (5, 2), (-7, 3), (9, 4), (-5, 1), (7, 6), (11, 5), (-8, 3), (13, 4), (-9, 7),
    )
)


def verify_table3() -> list[VerificationReport]:
    """Spot checks of the eight rank-one subfamilies."""
    reports: list[VerificationReport] = []
    for index in range(1, 9):
        singular = set(singular_k_values(index))
        samples = [k for k in _TABLE3_K_POOL if k not in singular][:5]
        checked = []
        ok = True
        for k in samples:
            try:
                inst = subfamily(index, k)
            except SingularParameter:
                continue
            curve = family_curve(inst.a)
            ok = ok and curve.contains(inst.point) and inst.point.x == inst.x_candidate
            checked.append(str(k))
        _check(
            reports,
            f"table3/subfamily{index}",
            ok and len(checked) >= 4,
            f"point at the row's x-candidate verified for k in {{{', '.join(checked)}}}",
        )

    locus_ok = True
    for k in (Fraction(0), Fraction(4), Fraction(5), Fraction(-1), Fraction(-2),
              Fraction(7, 2), Fraction(9, 5), Fraction(-3, 4), Fraction(11, 6), Fraction(-7)):
        curve, _ = subfamily1_cleared(k)
        locus_ok = locus_ok and (
            curve.A ** 2 - 4 * curve.B == subfamily1_singular_locus_value(k)
        )
    _check(
        reports,
        "table3/subfamily1/singular-locus",
        locus_ok,
        "A(k)^2 - 4B(k) matches its factored form at 10 sample k",
    )

    _check(
        reports,
        "table3/subfamily1/excluded-k",
        singular_k_values(1) == (1, 2, 3),
        "the excluded k of subfamily 1 are exactly {1, 2, 3}",
    )

    cleared, point = subfamily1_cleared(0)
    _check(
        reports,
        "table3/subfamily1/k=0",
        (cleared.A, cleared.B) == (10334, 9150625)
        and point.x == 625
        and abs(point.y) == 100000,
        f"cleared model {{10334, 9150625}} with point (625, {point.y})",
    )

    consistency = all(
        family_curve(subfamily(1, k).a).j_invariant == subfamily1_cleared(k)[0].j_invariant
        for k in (Fraction(5), Fraction(7, 2), Fraction(-4))
    )
    _check(
        reports,
        "table3/subfamily1/clearing-consistency",
        consistency,
        "cleared model and parameter-form curve share j-invariants at sample k",
    )
    return reports


def verify_table4() -> list[VerificationReport]:
    """Torsion structure of the 26 published rank-3 parameters."""
    reports: list[VerificationReport] = []
    for r in RANK3_PRODUCT_TORSION_R:
        a = product_torsion_parameter(r)
        curve = family_curve(a)
        structure = torsion_subgroup(curve, hints=[P for P, _ in family_torsion_points(a)])
        ok = (
            structure.shape == "Z/2xZ/8"
            and structure.proven
            and len(two_torsion_points(curve)) == 3
        )
        _check(
            reports,
            f"table4/r={r}",
            ok,
            f"a = {a}: torsion {structure.shape} "
            f"({'proven' if structure.proven else 'bound only'}); "
            "published rank 3: rank claim not re-proved",
        )
    return reports


def verify_table5() -> list[VerificationReport]:
    """Sieve thresholds of the published high-rank rows."""
    reports: list[VerificationReport] = []
    for row in HIGH_RANK_SIEVE_ROWS:
        thresholds = SIEVE_THRESHOLDS[row.subfamily]
        record = sieve(row.subfamily, [row.k])[0]
        scores = ", ".join(f"S({b}) = {score:.3f} > {thresholds[b]:g}"
                           for b, score in sorted(record.sums.items()))
        note = ""
        if row.note == "rank-window":
            note = "; published rank window 4..5 (conditional)"
        elif row.note == "shared-curve":
            note = "; reduces to the same curve as the other flagged row"
        _check(
            reports,
            f"table5/subfamily{row.subfamily}/k={row.k}",
            record.passed,
            f"{scores}{note}; published rank 5: rank claim not re-proved",
        )

    j_five = family_curve(subfamily_parameter(5, Fraction(79, 50))).j_invariant
    j_eight = family_curve(subfamily_parameter(8, Fraction(113, 129))).j_invariant
    _check(
        reports,
        "table5/shared-curve",
        j_five == j_eight == SHARED_HIGH_RANK_CURVE.j_invariant,
        "the two flagged rows and the published minimal model share one j-invariant",
    )

    structure = torsion_subgroup(SHARED_HIGH_RANK_CURVE)
    _check(
        reports,
        "table5/shared-curve/torsion-bound",
        structure.bound % 8 == 0,
        f"torsion order bound {structure.bound} is divisible by 8 "
        f"(certainty: {'proven' if structure.proven else 'bound only'})",
    )
    return reports


_PROGRESSION_A_SAMPLES = tuple(
    Fraction(n, d)
    for n, d in (
        (2, 1), (3, 1), (5, 2), (7, 3), (-3, 2), (10, 1), (-11, 5), (9, 4), (21, 5), (4, 7),
        (13, 6), (-7, 4), (8, 3), (17, 2), (-9, 8), (5, 1), (12, 7), (-2, 5), (25, 4), (6, 1),
    )
)


def verify_progressions() -> list[VerificationReport]:
    """Geometric progressions of x-coordinates on the family curves."""
    reports: list[VerificationReport] = []

    base_ok = all(
        all(geometric_progression_points(a)[i][1] is not None for i in (1, 2, 3))
        for a in _PROGRESSION_A_SAMPLES
    )
    _check(
        reports,
        "progressions/three-term",
        base_ok,
        "x = 4a, 4a^2, 4a^3 lift to points for every sampled parameter",
    )

    five = geometric_progression_points(subfamily_parameter(1, 0))
    _check(
        reports,
        "progressions/five-term-subfamily1",
        all(point is not None for _, point in five),
        "subfamily 1 at k = 0 (a = -11/5) carries all of x = 4a^0 .. 4a^4",
    )

    symmetric = all(
        (geometric_progression_points(a)[0][1] is None)
        == (geometric_progression_points(a)[4][1] is None)
        for a in _PROGRESSION_A_SAMPLES
    )
    _check(
        reports,
        "progressions/end-symmetry",
        symmetric,
        "x = 4 lifts exactly when x = 4a^4 does (reflection through x -> B/x)",
    )

    # second published subfamily a = (k^2-2k+2)/(k^2+2): the five-term
    # property is conditional on 4k^4 - 8k^3 + 21k^2 - 16k + 16 being a
    # square; report per-k status rather than guessing intent
    statuses = []
    equivalence = True
    for k in (Fraction(1), Fraction(2), Fraction(33, 16), Fraction(1, 2), Fraction(-1),
              Fraction(5, 3), Fraction(-2), Fraction(32, 33), Fraction(4), Fraction(-1, 3)):
        a = (k * k - 2 * k + 2) / (k * k + 2)
        quartic_square = is_rational_square(4 * k ** 4 - 8 * k ** 3 + 21 * k * k - 16 * k + 16)
        try:
            present = geometric_progression_points(a)[0][1] is not None
        except SingularParameter:
            statuses.append(f"k={k}: singular (a={a})")
            continue
        equivalence = equivalence and (present == quartic_square)
        statuses.append(f"k={k}: {'five-term' if present else 'three-term'}")
    _check(
        reports,
        "progressions/second-subfamily",
        equivalence,
        "x = 4 membership tracks the quartic square condition; " + "; ".join(statuses),
    )
    return reports


_CORPORA = {
    "examples": verify_examples,
    "table3": verify_table3,
    "table4": verify_table4,
    "table5": verify_table5,
    "progressions": verify_progressions,
}
TABLES = tuple(_CORPORA)


def run(table: str) -> list[VerificationReport]:
    if table not in _CORPORA:
        raise ValueError(f"unknown corpus {table!r}; choose from {', '.join(TABLES)}")
    return _CORPORA[table]()
