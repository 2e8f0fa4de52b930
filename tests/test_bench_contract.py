"""The names bench/tracing.py wraps, the counters it derives from them, and
the configs bench/workloads.py builds.

The benchmark traces twopatch from outside the package by module attribute
and sets config keys by name, so renaming or removing a traced function or a
key breaks it without failing any other test. These run `twopatch eigen` and
`twopatch solve` under the benchmark's own tracer, and build every workload.
"""

import importlib
import os
import sys

from twopatch import cli

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import tracing  # noqa: E402  (bench/ is not a package)
import workloads  # noqa: E402


def test_traced_sites_resolve_and_eigen_counts_one_factorisation_per_solve(tmp_path):
    for name, sites, _ in tracing.TRACED:
        for site in sites:
            module_name, attr = site.split(":")
            assert callable(getattr(importlib.import_module(module_name), attr, None)), \
                f"{site} ({name}) does not resolve"
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.cmd_eigen(cli.ExperimentConfig(n=1, h_target=0.25), str(tmp_path))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["eigen.principal_eigenpair.calls"] > 0
    assert metrics["eigen.splu_per_solve"] == 1.0
    assert metrics["eigen.iterations"] > 0


def test_cmd_solve_records_one_integrate_to_span(tmp_path):
    # the dynamics workload reads its PDE spans off pde.integrate_to: a
    # rename of that function, or a solve that bypasses the traced name,
    # would leave those metrics at 0 without any error
    tracer = tracing.Tracer()
    config = cli.ExperimentConfig(n=1, t_end=10.0, L=3.0, m=49)
    with tracer.installed():
        cli.cmd_solve(config, str(tmp_path))
    names = [span[0] for span in tracer.spans]
    assert names.count("pde.integrate_to") == 1
    assert names.count("cli.cmd_solve") == 1


def test_every_workload_builds_and_its_configs_round_trip():
    # building a workload runs none of its ops; each op's config must come
    # back from the config.txt text the runner writes for it
    ops = []
    for build in workloads.WORKLOADS.values():
        workload = build(0)
        ops += workload.ops + workload.warm_up
    assert ops
    for op in ops:
        assert cli.parse_config(cli.emit_config(op.config)) == op.config, op.name
