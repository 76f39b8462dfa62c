"""Simulation substrate: event engine, network, transport, failures."""
