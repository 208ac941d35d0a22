"""Exact-arithmetic toolkit for diagram calculus, quantum SL(2) module data at
roots of unity, fusion rings, and ribbon/modularity verification.

Subpackage map:
    cyclo   exact cyclotomic field Q(zeta_{4p})
    tldiag  Temperley-Lieb diagram category at d = -(q + q^{-1})
    qrep    weight modules; braiding and inverse twist as certified matrices
    fusion  Z+-rings, the ring-isomorphism witness, Frobenius-Perron dimensions
    ribbon  twist tables, monodromy spectra, Mueger-center tests
    checks  the verification checks behind verify, the check verbs and the
            acceptance gate, one function per verified statement
    cli     command-line front end with a small expression DSL; not
            imported with the package (python -m ribbonkit.cli runs it)
"""

__version__ = "0.1.0"

from . import cyclo, tldiag, qrep, fusion, ribbon, checks  # noqa: F401
