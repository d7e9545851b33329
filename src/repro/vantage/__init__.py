"""Vantage points and the active measurement campaign.

Models the NLNOG-RING-like measurement platform: a VP population matched
to the paper's Table 3 regional distribution, the Figure 2 measurement
timeline (30-minute base interval, 15-minute windows around the ZONEMD
and b.root events), and a prober executing the Appendix F suite against
the simulated root server system.

The package itself imports nothing: import the submodule that defines a
name (:mod:`repro.vantage.collector`, :mod:`repro.vantage.probes`,
:mod:`repro.vantage.ring`, ...).  The dataset layer reaches the
collector through :mod:`repro.vantage.collector` and must not load the
prober and the route compiler behind it.
"""
