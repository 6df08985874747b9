"""Forward analysis: from explicit Eisenstein polynomials to their invariants.

The analyzer never touches approximate p-adic numbers; a polynomial is a
table of residue digits and every invariant is an exact function of the
coefficient valuations and leading digits.
"""

from ramify import BinomialContext, make_field, residual_polynomials
from ramify.analyzer import (
    fine_of,
    parse_integer_polynomial,
    polygon_of,
    unif_of,
)

ctx = BinomialContext(make_field(2, 1, 1, 1))

for text in ["x^8+2x^7+2x^6+2x^4+2", "x^2-2", "x^3-2"]:
    f = parse_integer_polynomial(ctx.base, text)
    print(text)
    print(f"  hull vertices:            {list(polygon_of(f).vertices)}")
    print(f"  fine polygon:             {list(fine_of(f).points)}")
    invariant = unif_of(f)
    residues = [(x, J, str(rho)) for x, J, rho in invariant.res.items()]
    print(f"  residues:                 {residues}")
    print(f"  phi0:                     {invariant.phi0}")
    faces = residual_polynomials(ctx, invariant.res)
    for face in faces:
        coeffs = [str(c) for c in face.coefficients]
        print(
            f"  face x={face.x_left}..{face.x_right} slope -{face.h}/{face.e}: "
            f"coefficients {coeffs}"
        )
    print()

# a wildly ramified cubic over Q_3
ctx3 = BinomialContext(make_field(3, 1, 1, 1))
g = parse_integer_polynomial(ctx3.base, "x^3-3")
print("x^3-3 over Q_3")
print(f"  fine polygon: {list(fine_of(g).points)}")
print(f"  phi0:         {unif_of(g).phi0}  (the residue of -3/3)")
