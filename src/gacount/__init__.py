"""Point counts of bounded height on compactifications of the additive group.

The package verifies, with exact arithmetic wherever the mathematics is
exact, the leading-constant predictions for the number of rational points of
bounded anticanonical (and more general) height on six model varieties:
projective spaces P1, P2, P3 and the plane blown up in one, two or three
rational points on the line at infinity (BlP2-1, BlP2-2, BlP2-3).

Modules:
    geometry     variety catalog, Picard arithmetic, boundary strata
    heights      exact generator, finite and local heights of rational points
    enumeration  provably complete bounded-height counts and asymptotic fits
    tamagawa     local densities, Euler products, predicted leading constants
    fourier      p-adic and archimedean height transforms, Poisson cross-check
    cli          command line front end and acceptance suite driver
"""

__version__ = "0.1.0"
