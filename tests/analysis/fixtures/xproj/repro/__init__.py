"""Known-bad multi-file project for interprocedural rule tests.

The ``xproj`` directory has no ``__init__.py``, so module derivation
stops there and these files lint as ``repro.sim.campaign``,
``repro.jobs.submitter`` etc. — i.e. under the real rule scopes, without
``--assume-module``.  Each file seeds exactly the findings its docstring
names; the tests assert exact counts, so keep them minimal.
"""
