"""Independent oracles for the production path of hardedge.

Each module mirrors the production module whose results it checks (sop
has no production counterpart: the bulk route never builds the
polynomials).  They serve the tests and ``hardedge selftest`` only.
Reference code may import production code; production code never imports
this package at module level.  LogScaled and the scalar tricomi_u live
in ``specfun`` here: production carries logs as plain floats.
"""
