"""Inter-domain routing fabric for anycast.

Models the pieces of the Internet the paper's analyses consume:

* IXPs and colocation facilities (shared last-hop infrastructure — RQ1),
  in :mod:`repro.netsim.facilities`,
* transit providers with per-address-family peering policies, including
  an AS6939-like open-IPv6 transit and an AS12956-like South-America
  carrier (the two ASes the paper singles out in §5/§6), in
  :mod:`repro.netsim.transit`,
* BGP-style route selection into anycast catchments, with routing churn
  (:mod:`repro.netsim.routing`, :mod:`repro.netsim.epochs`),
* traceroute and RTT models feeding the co-location, stability and
  latency analyses (:mod:`repro.netsim.traceroute`,
  :mod:`repro.netsim.latency`), over the fabric of
  :mod:`repro.netsim.topology`.

The package itself imports nothing: import the submodule that defines a
name.  Readers of a saved dataset reach :mod:`repro.netsim.facilities`
through the passive tables and must not pay for the route compiler.
"""
