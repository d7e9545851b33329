"""repro — a reproduction of "The Roots Go Deep: Measuring '.' Under
Change" (IMC 2024).

The package simulates the DNS root server system and everything the
paper's measurement study needs around it — DNS/DNSSEC/ZONEMD, an
anycast routing fabric, the 13 letters' deployments, active vantage
points, passive ISP/IXP traces, fault injection — and runs the paper's
analysis pipeline on top.

Quickstart::

    from repro.core import StudyConfig, StudyPipeline
    results = StudyPipeline(StudyConfig.quick()).run()

See README.md for the tour, DESIGN.md for the architecture and
substitution table, and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
