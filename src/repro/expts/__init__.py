"""Experiment registry and runner: the paper's evaluation as declarative specs.

Every figure, table and ablation of the paper's evaluation section is
described by an :class:`~repro.expts.specs.ExperimentSpec` -- a declarative
manifest of its parameter grid, protocol/topology/workload bindings, expected
output schema and paper-claim checks -- registered in
:mod:`repro.expts.registry` by :mod:`repro.expts.paper`.

The :mod:`repro.expts.runner` executes selected specs (optionally across
multiprocessing workers), computing every row fresh, and
:mod:`repro.expts.report` turns the outcome into the byte-reproducible
``RESULTS.json`` artifact and the auto-generated ``RESULTS.md`` document.

Entry points:

* ``scripts/run_experiments.py`` -- the CLI driver and the one way to run
  an experiment (one figure: ``--full --only <spec id>``);
* :func:`repro.expts.runner.run_experiments` -- the programmatic API.

Import a name from the module that defines it; the package re-exports nothing.
"""
