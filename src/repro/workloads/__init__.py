"""Workload generators and trace tooling (Harvard/HP/Web-like)."""
