"""Evaluation analyses: locality, availability, performance, balance."""
