#!/usr/bin/env python3
"""Walk through the degree-3 classification story on one concrete fixture:

  * a nonsplit short exact sequence of modules over abelian g of dim 3,
  * a 2-cocycle valued in the quotient,
  * the spliced crossed module, its theta class, and the matching
    connecting-homomorphism image,
  * Baer-sum arithmetic on the resulting classes, with the zero 2-fold
    extension and the negated one.
"""
from crossedext.cohomology import (class_of, cochain_from_values,
                                   connecting_hom)
from crossedext.crossed import (choose_sections, classify2, theta,
                                yoneda_crossed_module)
from crossedext.extensions import baer_sum, negate, zero_extension
from crossedext.field import QQ
from crossedext.samples import abelian, nilpotent_ses


def fmt(cl):
    return "[" + ", ".join(QQ.to_str(x) for x in cl.canonical) + "]"


def main():
    g = abelian(QQ, 3)
    ses = nilpotent_ses(g)
    print(f"g: abelian, dim {g.dim}")
    print("sequence: 0 -> K -> K^2 (Jordan block action) -> K -> 0")

    one, zero = QQ.one, QQ.zero
    c = cochain_from_values(ses.tail, 2,
                            lambda t: (one,) if t == (1, 2) else (zero,))
    print("\n2-cocycle c supported on (e_1, e_2); its class maps under the")
    print("connecting homomorphism to", fmt(connecting_hom(ses, class_of(c))))

    pres = yoneda_crossed_module(ses, c)
    print(f"\nspliced crossed module: V dim {pres.base.rep.dim},"
          f" L dim {pres.base.algebra.dim}")
    th = theta(pres, *choose_sections(pres))
    print("theta class (canonical form):", fmt(classify2(pres)))
    print("matches connecting image:",
          classify2(pres) == connecting_hom(ses, class_of(c)))

    doubled = baer_sum(pres, pres)
    print("\nBaer sum with itself:", fmt(classify2(doubled)))
    unit = baer_sum(pres, zero_extension(g, pres.M, 2))
    print("Baer sum with the zero extension:", fmt(classify2(unit)))
    cancelled = baer_sum(pres, negate(pres))
    print("Baer sum with its negative:", fmt(classify2(cancelled)),
          "(zero class)" if classify2(cancelled).is_zero() else "")


if __name__ == "__main__":
    main()
