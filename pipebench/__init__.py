"""Pipeline benchmark for wwspot: workloads, output checks and tracing.

Run it with ``python3 pipebench/run.py --workload <train|decode|prep|all>``
from the root of a source checkout; see ``run.py`` for the options.
"""
