"""The paper's headline contribution: application-level benchmarking.

This package ties everything together: the TPC-D power test across all
measured configurations (:mod:`repro.core.powertest`), the auxiliary
experiments behind Tables 2/3/6/7/8/9 (:mod:`repro.core.experiments`),
calibration constants (:mod:`repro.core.calibration`), the paper's
published numbers (:mod:`repro.core.paperdata`) and result formatting
(:mod:`repro.core.results`).

Nothing is imported here: the harness sits at the top of the package
graph, and a lower layer that imports one small module of this package
must not pull the whole harness in with it.
"""
