"""Deterministic simulator and library for scheduled gossip SGD on peer graphs.

Nodes run rounds of local SGD whose per-round step budgets follow a
growing schedule, broadcast each round's update (its gradient sum times
its step size) to their neighbors, and gate their progress on a bounded
round lag.  A discrete-event engine with stochastic compute and network
latencies drives the nodes, records a full trace, and the consistency
tools verify the staleness contracts that recorded runs must satisfy.
"""
